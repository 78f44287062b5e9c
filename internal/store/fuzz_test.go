package store

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"maps"
	"os"
	"path/filepath"
	"testing"
)

// fuzzOpts keeps the bounds small so the fuzzer reaches the oversized
// key and value branches of recovery.
var fuzzOpts = Options{MaxKeyBytes: 64, MaxValueBytes: 256}

// replayLog is the reference for recovery: the index a log must yield,
// scanning frames in order (last write wins) up to the first one that
// is torn, out of bounds or fails its CRC.
func replayLog(log []byte, opts Options) map[string][]byte {
	index := map[string][]byte{}
	for len(log) >= headerSize {
		klen := int(binary.LittleEndian.Uint32(log[0:4]))
		vlen := int(binary.LittleEndian.Uint32(log[4:8]))
		if klen == 0 || klen > opts.MaxKeyBytes || vlen > opts.MaxValueBytes || len(log)-headerSize < klen+vlen {
			break
		}
		body := log[headerSize : headerSize+klen+vlen]
		if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(log[8:12]) {
			break
		}
		index[string(body[:klen])] = body[klen:]
		log = log[headerSize+klen+vlen:]
	}
	return index
}

// contents reads a store's whole index.
func contents(t *testing.T, s *Store) map[string][]byte {
	t.Helper()
	got := map[string][]byte{}
	if err := s.ForEach(func(k string, v []byte) error { got[k] = v; return nil }); err != nil {
		t.Fatal(err)
	}
	return got
}

// FuzzStoreOpen writes arbitrary bytes as a log file and opens it:
// recovery must neither panic nor fail on content, must index exactly
// the intact prefix, must be idempotent (a second Open drops nothing
// and sees the same index), and must leave a log that takes appends
// which survive a reopen.
func FuzzStoreOpen(f *testing.F) {
	seedPath := filepath.Join(f.TempDir(), "seed.log")
	s, err := Open(seedPath, fuzzOpts)
	if err != nil {
		f.Fatal(err)
	}
	for _, kv := range [][2]string{{"a", "one"}, {"bb", ""}, {"a", "two"}} {
		if err := s.Put(kv[0], []byte(kv[1])); err != nil {
			f.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(seedPath)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-2])                       // torn tail
	f.Add(append(bytes.Clone(valid), 1, 0, 0, 0))     // stray partial header
	f.Add(append([]byte{0xff, 0xff, 0, 0}, valid...)) // oversized first key
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, log []byte) {
		path := filepath.Join(t.TempDir(), "results.log")
		if err := os.WriteFile(path, log, 0o644); err != nil {
			t.Fatal(err)
		}
		want := replayLog(log, fuzzOpts)

		s, err := Open(path, fuzzOpts)
		if err != nil {
			t.Fatalf("Open failed on content: %v", err)
		}
		if s.Len() != len(want) {
			t.Errorf("Len = %d, want %d", s.Len(), len(want))
		}
		for k, v := range want {
			if got, ok := s.Get(k); !ok || !bytes.Equal(got, v) {
				t.Errorf("Get(%q) = %q, %v; want %q", k, got, ok, v)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}

		s, err = Open(path, fuzzOpts)
		if err != nil {
			t.Fatalf("second Open: %v", err)
		}
		if d := s.RecoveredDrops(); d != 0 {
			t.Errorf("second Open dropped %d records", d)
		}
		if got := contents(t, s); !maps.EqualFunc(got, want, bytes.Equal) {
			t.Errorf("second Open index %q, want %q", got, want)
		}
		if err := s.Put("after-recovery", []byte("v")); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}

		s, err = Open(path, fuzzOpts)
		if err != nil {
			t.Fatalf("third Open: %v", err)
		}
		defer s.Close()
		want["after-recovery"] = []byte("v")
		if d := s.RecoveredDrops(); d != 0 {
			t.Errorf("reopen after Put dropped %d records", d)
		}
		if got := contents(t, s); !maps.EqualFunc(got, want, bytes.Equal) {
			t.Errorf("reopen after Put index %q, want %q", got, want)
		}
	})
}
