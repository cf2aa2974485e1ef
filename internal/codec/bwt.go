package codec

import "sort"

// bwtForward computes the Burrows-Wheeler transform of s over its
// cyclic rotations, returning the transformed bytes and the primary
// index (the row of the sorted rotation matrix holding the original
// string). Rotation order is computed by prefix doubling in
// O(n log^2 n), which is robust against degenerate (highly repetitive)
// blocks where naive rotation sorting is quadratic.
func bwtForward(s []byte) (bwt []byte, primary int) {
	n := len(s)
	if n == 0 {
		return nil, 0
	}
	rank := make([]int, n)
	for i, c := range s {
		rank[i] = int(c)
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	tmp := make([]int, n)
	for k := 1; k < n; k *= 2 {
		key := func(i int) (int, int) { return rank[i], rank[(i+k)%n] }
		sort.Slice(idx, func(a, b int) bool {
			r1a, r2a := key(idx[a])
			r1b, r2b := key(idx[b])
			if r1a != r1b {
				return r1a < r1b
			}
			return r2a < r2b
		})
		tmp[idx[0]] = 0
		distinct := 1
		for i := 1; i < n; i++ {
			r1p, r2p := key(idx[i-1])
			r1c, r2c := key(idx[i])
			tmp[idx[i]] = tmp[idx[i-1]]
			if r1p != r1c || r2p != r2c {
				tmp[idx[i]]++
				distinct++
			}
		}
		copy(rank, tmp)
		if distinct == n {
			break
		}
	}
	// Ties that remain correspond to identical rotations (periodic
	// blocks); any consistent order yields an invertible transform, so a
	// final index sort within equal ranks is used for determinism.
	sort.Slice(idx, func(a, b int) bool {
		if rank[idx[a]] != rank[idx[b]] {
			return rank[idx[a]] < rank[idx[b]]
		}
		return idx[a] < idx[b]
	})
	bwt = make([]byte, n)
	for j, i := range idx {
		bwt[j] = s[(i+n-1)%n]
		if i == 0 {
			primary = j
		}
	}
	return bwt, primary
}

// bwtInverse reverses bwtForward using the classic LF mapping, into
// dst's storage when it holds len(bwt) bytes.
func bwtInverse(dst, bwt []byte, primary int) []byte {
	n := len(bwt)
	if n == 0 {
		return nil
	}
	var count [256]int
	for _, c := range bwt {
		count[c]++
	}
	var base [256]int
	sum := 0
	for c := 0; c < 256; c++ {
		base[c] = sum
		sum += count[c]
	}
	lf := make([]int, n)
	var occ [256]int
	for i, c := range bwt {
		lf[i] = base[c] + occ[c]
		occ[c]++
	}
	out := append(dst[:0], make([]byte, n)...)
	i := primary
	for j := n - 1; j >= 0; j-- {
		out[j] = bwt[i]
		i = lf[i]
	}
	return out
}

// mtfEncode move-to-front encodes s in place of a fresh slice.
func mtfEncode(s []byte) []byte {
	var alpha [256]byte
	for i := range alpha {
		alpha[i] = byte(i)
	}
	out := make([]byte, len(s))
	for i, c := range s {
		var j int
		for alpha[j] != c {
			j++
		}
		out[i] = byte(j)
		copy(alpha[1:j+1], alpha[:j])
		alpha[0] = c
	}
	return out
}

// mtfDecode reverses mtfEncode.
func mtfDecode(s []byte) []byte {
	var alpha [256]byte
	for i := range alpha {
		alpha[i] = byte(i)
	}
	out := make([]byte, len(s))
	for i, j := range s {
		c := alpha[j]
		out[i] = c
		copy(alpha[1:int(j)+1], alpha[:j])
		alpha[0] = c
	}
	return out
}
