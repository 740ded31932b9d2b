package fleet

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"reflect"
	"strings"
	"testing"
)

// fuzzConfig is testConfig's fleet — every timeline event kind, and
// multi-IP carriers split across two shards — at a fifth of the
// population, so checkpoint bodies stay small enough to fuzz quickly.
func fuzzConfig() Config {
	cfg := testConfig(1, 2)
	for i := range cfg.Carriers {
		cfg.Carriers[i].Subscribers = 6
	}
	return cfg
}

// seal frames a gob checkpoint body in the file format — magic,
// version, body, SHA-256 trailer — so a mutated body reaches the
// decoder past the checksum.
func seal(body []byte) []byte {
	var buf bytes.Buffer
	buf.WriteString(checkpointMagic)
	var ver [4]byte
	binary.BigEndian.PutUint32(ver[:], checkpointVersion)
	buf.Write(ver[:])
	buf.Write(body)
	sum := sha256.Sum256(buf.Bytes())
	buf.Write(sum[:])
	return buf.Bytes()
}

// checkpointBody runs cfg to day and returns its checkpoint's gob body.
func checkpointBody(t testing.TB, cfg Config, day int) []byte {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for s.Day() < day {
		s.StepDay()
	}
	data, err := s.Checkpoint().encode()
	if err != nil {
		t.Fatal(err)
	}
	return data[len(checkpointMagic)+4 : len(data)-sha256.Size]
}

// FuzzCheckpointResume mutates checkpoint bodies behind a recomputed
// trailer — the SHA-256 catches accidents, not well-hashed malformed
// bodies — and requires DecodeCheckpoint, Resume and one StepDay to
// either return an error or run: never panic. One day is enough to
// exercise the restored kernel's invariants on every path a resumed run
// takes; a full resume would cost six times as much per input.
func FuzzCheckpointResume(f *testing.F) {
	cfg := fuzzConfig()
	f.Add(checkpointBody(f, cfg, 5))
	f.Fuzz(func(t *testing.T, body []byte) {
		ck, err := DecodeCheckpoint(seal(body))
		if err != nil {
			return
		}
		s, err := Resume(cfg, ck)
		if err != nil {
			return
		}
		s.StepDay()
	})
}

// withRealmField re-encodes ck with one extra field on realm i's record
// — the shape of a field an older format carried — by mirroring
// RealmCkpt in a struct type built at run time. Gob matches fields by
// name, so the decoder sees exactly what an encoder holding the extra
// field would have written.
func withRealmField(t *testing.T, ck *Checkpoint, realm int, name string, v any) []byte {
	t.Helper()
	rt := reflect.TypeOf(RealmCkpt{})
	fields := make([]reflect.StructField, 0, rt.NumField()+1)
	for i := 0; i < rt.NumField(); i++ {
		fields = append(fields, rt.Field(i))
	}
	fields = append(fields, reflect.StructField{Name: name, Type: reflect.TypeOf(v)})
	mirror := reflect.StructOf(fields)
	realms := reflect.MakeSlice(reflect.SliceOf(mirror), len(ck.Realms), len(ck.Realms))
	for i := range ck.Realms {
		src := reflect.ValueOf(ck.Realms[i])
		for f := 0; f < rt.NumField(); f++ {
			realms.Index(i).Field(f).Set(src.Field(f))
		}
	}
	realms.Index(realm).FieldByName(name).Set(reflect.ValueOf(v))
	outer := reflect.StructOf([]reflect.StructField{
		{Name: "Sig", Type: reflect.TypeOf("")},
		{Name: "Day", Type: reflect.TypeOf(0)},
		{Name: "EventsApplied", Type: reflect.TypeOf(0)},
		{Name: "Realms", Type: realms.Type()},
	})
	body := reflect.New(outer).Elem()
	body.Field(0).SetString(ck.Sig)
	body.Field(1).SetInt(int64(ck.Day))
	body.Field(2).SetInt(int64(ck.EventsApplied))
	body.Field(3).Set(realms)
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(body.Interface()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestResumeReplaysProvisioning pins that a carrier's provisioning
// state — CGN on or off, pool generation and size, engine epoch — comes
// from replaying the timeline, never from the checkpoint: a body
// carrying a stale PoolSize of -1 on the re-provisioned carrier (a
// field older formats stored and Resume trusted, panicking in
// makeslice) resumes and finishes identically to the uninterrupted run,
// and kernel state that contradicts the replayed CGN state is refused.
func TestResumeReplaysProvisioning(t *testing.T) {
	cfg := testConfig(1, 2)
	ref, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := DecodeCheckpoint(seal(checkpointBody(t, cfg, 5)))
	if err != nil {
		t.Fatal(err)
	}
	stale, err := DecodeCheckpoint(seal(withRealmField(t, ck, 1, "PoolSize", -1)))
	if err != nil {
		t.Fatal(err)
	}
	s, err := Resume(cfg, stale)
	if err != nil {
		t.Fatal(err)
	}
	if r := s.realms[1]; r.poolSize != 2 || r.provision != 1 || r.k.NAT().NumLanes() != 2 {
		t.Fatalf("re-provisioned carrier resumed with pool size %d, provision %d, %d lanes; want 2, 1, 2", r.poolSize, r.provision, r.k.NAT().NumLanes())
	}
	for !s.Done() {
		s.StepDay()
	}
	if got := s.Result(); !reflect.DeepEqual(got, ref) {
		t.Fatalf("resume past a stale pool size diverged:\n got %+v\nwant %+v", got, ref)
	}

	// By day 5 carrier 0 runs CGN and carrier 3 has it disabled.
	missing := *ck
	missing.Realms = append([]RealmCkpt(nil), ck.Realms...)
	missing.Realms[0].Kernel = nil
	if _, err := Resume(cfg, &missing); err == nil || !strings.Contains(err.Error(), "no kernel state") {
		t.Errorf("enabled carrier without kernel state: %v", err)
	}
	extra := *ck
	extra.Realms = append([]RealmCkpt(nil), ck.Realms...)
	extra.Realms[3].Kernel = ck.Realms[0].Kernel
	if _, err := Resume(cfg, &extra); err == nil || !strings.Contains(err.Error(), "carries kernel state") {
		t.Errorf("disabled carrier with kernel state: %v", err)
	}
}
