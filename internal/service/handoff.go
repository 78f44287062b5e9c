package service

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/model"
	"repro/internal/sched"
)

// ErrNoStore reports that a handoff record arrived at a service with
// no persistent store to ingest it into. Detect it with errors.Is.
var ErrNoStore = errors.New("service: no persistent store configured")

// ErrHandoffRejected reports that a handoff record failed validation —
// a key that does not address the accompanying problem, a payload that
// does not decode, or a schedule that does not verify against the
// problem. Rejected records are never stored. Detect it with
// errors.Is.
var ErrHandoffRejected = errors.New("service: handoff record rejected")

// StoreKey returns the persistent-store key a (problem, options,
// stage) request is cached under — the version-prefixed content
// address that hinted handoff ships records by.
func StoreKey(p *model.Problem, opts sched.Options, stage Stage) string {
	return storeKeyPrefix + Key(p, opts, stage)
}

// IngestHandoff validates and stores a record shipped by another shard
// (hinted handoff): key must content-address the given problem, data
// must decode into a result for it, and the decoded result must pass
// the caller's check (the web layer passes full schedule verification)
// — a shipped record is an unauthenticated network input, so it
// re-earns its place in the store instead of being trusted. What lands
// is the decoded result re-encoded, never the peer's bytes, so the
// store only ever holds records this build would write itself. Accepted
// records land last-write-wins (byte-identical re-ships are skipped);
// the next L1 miss for the key rehydrates from the store exactly as if
// this shard had computed the result itself. check may be nil to skip
// the semantic pass (tests only; serving always verifies).
//
// The check is a callback rather than a direct verify call because the
// dependency points the other way: internal/verify's own tests drive
// this service, so service importing verify would cycle.
func (s *Service) IngestHandoff(p *model.Problem, key string, data []byte, check func(*sched.Result) error) error {
	if s.store == nil {
		return ErrNoStore
	}
	if !strings.HasPrefix(key, storeKeyPrefix+p.Fingerprint()+"/") {
		s.met.handoffsRejected.Add(1)
		return fmt.Errorf("%w: key %q does not address the shipped problem", ErrHandoffRejected, key)
	}
	res, err := decodeResult(p, data)
	if err != nil {
		s.met.handoffsRejected.Add(1)
		return fmt.Errorf("%w: %v", ErrHandoffRejected, err)
	}
	if check != nil {
		if err := check(res); err != nil {
			s.met.handoffsRejected.Add(1)
			return fmt.Errorf("%w: %v", ErrHandoffRejected, err)
		}
	}
	data = EncodeResult(res)
	// Prefer the dedup ingestion path when the store has one: a re-ship
	// of bytes already live costs no log growth.
	type changer interface {
		PutIfChanged(key string, val []byte) (bool, error)
	}
	var putErr error
	if c, ok := s.store.(changer); ok {
		_, putErr = c.PutIfChanged(key, data)
	} else {
		putErr = s.store.Put(key, data)
	}
	if putErr != nil {
		s.met.storeErrs.Add(1)
		return putErr
	}
	s.met.handoffsReceived.Add(1)
	return nil
}

// NoteHandoffSent records the outcome of one outbound handoff
// shipment (the web layer ships asynchronously; the service owns the
// counters so they aggregate with the rest of /stats).
func (s *Service) NoteHandoffSent(err error) {
	if err != nil {
		s.met.handoffSendErrs.Add(1)
		return
	}
	s.met.handoffsSent.Add(1)
}
