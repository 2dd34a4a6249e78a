package main

import "stateslice"

// digest folds one query's result stream into an order-sensitive checksum
// over (A.Seq, B.Seq). The library orders results by (Time, Seq) of the
// probing tuple; results of one probing tuple share that key and may come in
// any order (state-slice chains and the Unshared plan emit them in different
// orders). So pairs inside such a group are summed, which is commutative,
// and groups are chained in order.
type digest struct {
	h       uint64 // chained digest of the closed groups
	sum     uint64 // commutative sum of the open group's pair hashes
	seq     uint64 // Seq of the open group
	time    stateslice.Time
	open    bool
	results uint64
	groups  uint64
	// disorder counts results that arrived before the open group in
	// (Time, Seq) order.
	disorder uint64
}

// add folds one result and reports whether it opened a new group, that is,
// whether it is the first result its probing tuple produced.
func (d *digest) add(t *stateslice.Tuple) bool {
	first := !d.open || t.Seq != d.seq
	if first {
		if d.open && (t.Time < d.time || (t.Time == d.time && t.Seq < d.seq)) {
			d.disorder++
		}
		d.close()
		d.seq, d.time, d.open = t.Seq, t.Time, true
		d.groups++
	}
	d.sum += mix(t.A.Seq*0x9E3779B97F4A7C15 ^ t.B.Seq)
	d.results++
	return first
}

// close chains the open group into h.
func (d *digest) close() {
	if d.open {
		d.h = mix(d.h ^ mix(d.seq) ^ d.sum)
		d.sum, d.open = 0, false
	}
}

// value returns the digest of everything added so far.
func (d *digest) value() uint64 {
	d.close()
	return d.h
}

// mix is the splitmix64 finalizer.
func mix(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	return z ^ z>>31
}
