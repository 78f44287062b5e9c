package service

import (
	"crypto/sha256"
	"encoding/binary"
	"hash"

	"repro/internal/sched"
)

// optsDigest canonically hashes every field of sched.Options that can
// change a result. The encoding is fixed-width and length-prefixed, so
// distinct option sets never share a digest. TestOptionsDigestCoversAllFields
// pins the field set; extend this function when sched.Options grows.
func optsDigest(o sched.Options) [8]byte {
	// Every Workers value yields byte-identical results (DESIGN §10),
	// so all widths share the key of Workers == 0, which is also the
	// key every default request has always had.
	o.Workers = 0
	h := sha256.New()
	putInt(h, o.Seed)
	putInt(h, int64(o.MaxBacktracks))
	putInt(h, int64(o.MaxSpikeRounds))
	putInt(h, int64(o.MaxScans))
	putInt(h, int64(len(o.ScanOrders)))
	for _, v := range o.ScanOrders {
		putInt(h, int64(v))
	}
	putInt(h, int64(len(o.SlotChoices)))
	for _, v := range o.SlotChoices {
		putInt(h, int64(v))
	}
	putBool(h, o.DisableLocks)
	putInt(h, int64(o.Restarts))
	putInt(h, int64(o.Workers))
	putBool(h, o.Compact)
	var out [8]byte
	copy(out[:], h.Sum(nil))
	return out
}

func putInt(h hash.Hash, v int64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(v))
	h.Write(buf[:])
}

func putBool(h hash.Hash, v bool) {
	if v {
		h.Write([]byte{1})
	} else {
		h.Write([]byte{0})
	}
}
