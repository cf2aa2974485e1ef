package anticombine

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestPlainRoundTrip(t *testing.T) {
	buf := AppendPlainValue(nil, []byte("hello"))
	if len(buf) != PlainValueSize([]byte("hello")) {
		t.Errorf("size mismatch: %d vs %d", len(buf), PlainValueSize([]byte("hello")))
	}
	dec, err := DecodeValue(buf)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Enc != EncPlain || string(dec.Value) != "hello" {
		t.Errorf("decoded %+v", dec)
	}
}

func TestEagerRoundTrip(t *testing.T) {
	keys := [][]byte{[]byte("man"), []byte("mango")}
	buf := AppendEagerValue(nil, keys, []byte("mango"))
	dec, err := DecodeValue(buf)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Enc != EncEager || string(dec.Value) != "mango" || len(dec.OtherKeys) != 2 {
		t.Fatalf("decoded %+v", dec)
	}
	if string(dec.OtherKeys[0]) != "man" || string(dec.OtherKeys[1]) != "mango" {
		t.Errorf("keys %q", dec.OtherKeys)
	}
}

func TestEagerEmptyKeys(t *testing.T) {
	buf := AppendEagerValue(nil, nil, []byte("v"))
	dec, err := DecodeValue(buf)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Enc != EncEager || len(dec.OtherKeys) != 0 || string(dec.Value) != "v" {
		t.Errorf("decoded %+v", dec)
	}
}

func TestLazyRoundTrip(t *testing.T) {
	buf := AppendLazyValue(nil, []byte("inkey"), []byte("invalue"))
	if len(buf) != LazyValueSize([]byte("inkey"), []byte("invalue")) {
		t.Errorf("size mismatch")
	}
	dec, err := DecodeValue(buf)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Enc != EncLazy || string(dec.InputKey) != "inkey" || string(dec.InputValue) != "invalue" {
		t.Errorf("decoded %+v", dec)
	}
}

func TestDecodeErrors(t *testing.T) {
	bad := [][]byte{
		nil,
		{99},             // unknown flag
		{EncEager},       // missing count
		{EncEager, 2, 5}, // truncated key
		{EncEager, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, // absurd count
		{EncLazy},       // missing input key
		{EncLazy, 9, 1}, // truncated input key
	}
	for i, b := range bad {
		if _, err := DecodeValue(b); err == nil {
			t.Errorf("case %d: expected error for %v", i, b)
		}
	}
}

func TestEncodePropertyRoundTrip(t *testing.T) {
	eager := func(k1, k2, v []byte) bool {
		buf := AppendEagerValue(nil, [][]byte{k1, k2}, v)
		dec, err := DecodeValue(buf)
		return err == nil && dec.Enc == EncEager &&
			bytes.Equal(dec.OtherKeys[0], k1) && bytes.Equal(dec.OtherKeys[1], k2) &&
			bytes.Equal(dec.Value, v)
	}
	if err := quick.Check(eager, nil); err != nil {
		t.Error(err)
	}
	lazy := func(k, v []byte) bool {
		buf := AppendLazyValue(nil, k, v)
		dec, err := DecodeValue(buf)
		return err == nil && dec.Enc == EncLazy &&
			bytes.Equal(dec.InputKey, k) && bytes.Equal(dec.InputValue, v) &&
			len(buf) == LazyValueSize(k, v)
	}
	if err := quick.Check(lazy, nil); err != nil {
		t.Error(err)
	}
}
