package main

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/serve"
)

// TestTenantFlags: each -tenant value defines one tenant's policy; a
// malformed value is rejected with the reason, and a tenant defined
// twice keeps its last definition.
func TestTenantFlags(t *testing.T) {
	cases := []struct {
		name    string
		values  []string
		want    tenantFlags
		wantErr string
	}{
		{
			name:   "full option set",
			values: []string{"analytics:weight=2,priority=1,max_running=4,max_queued=16"},
			want:   tenantFlags{"analytics": {Weight: 2, Priority: 1, MaxRunning: 4, MaxQueued: 16}},
		},
		{
			name:   "bare name",
			values: []string{"adhoc"},
			want:   tenantFlags{"adhoc": {}},
		},
		{name: "empty name", values: []string{":weight=2"}, wantErr: "tenant name is empty"},
		{name: "missing =", values: []string{"batch:weight"}, wantErr: `bad tenant option "weight" (want key=value)`},
		{name: "non-integer value", values: []string{"batch:weight=two"}, wantErr: `bad tenant option "weight=two"`},
		{name: "unknown key", values: []string{"batch:color=3"}, wantErr: `unknown tenant option "color"`},
		{
			name:   "repeated tenant, last wins",
			values: []string{"batch:weight=2,max_running=4", "adhoc", "batch:priority=3"},
			want:   tenantFlags{"batch": {Priority: 3}, "adhoc": {}},
		},
	}
	for _, c := range cases {
		got := tenantFlags{}
		var err error
		for _, v := range c.values {
			if err = got.Set(v); err != nil {
				break
			}
		}
		if c.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("%s: error %v, want one containing %q", c.name, err, c.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			// Printed as plain maps: tenantFlags' String is only a count.
			t.Errorf("%s: got %v, want %v", c.name, map[string]serve.TenantConfig(got), map[string]serve.TenantConfig(c.want))
		}
	}
}
