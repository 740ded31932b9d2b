package fleet

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"time"

	"cgn/internal/fastrand"
	"cgn/internal/traffic"
)

// Checkpoint file format: an 8-byte magic, a big-endian uint32 format
// version, the gob-encoded Checkpoint body, and a SHA-256 trailer over
// everything before it. The trailer turns truncation and bit rot into
// clean load errors instead of gob panics or — worse — silently wrong
// state; the version gates decoding across incompatible layouts; the
// magic keeps cgnsimd from gobbling arbitrary files handed to -resume.
// Version history: 1 was the original layout; 2 added the sharded
// universe's per-lane arrival-stream state (RealmCkpt.FrLanes/DstSeqs)
// when arrival generation moved onto per-lane streams; 3 added the
// allocation-defense state to nat.Snapshot subscriber records (token
// bucket level and refill timestamp) when the per-subscriber rate
// limiter and eviction policies landed — a version-2 checkpoint would
// decode but restore every bucket full, diverging from the run it was
// cut from; 4 added the sharded pool's lane-outage flags
// (RealmCkpt.LanesDown) when fault injection landed — a version-3
// checkpoint would decode but restore every lane up, diverging from a
// run cut mid-outage; 5 dropped the single-table engine's state
// (RealmCkpt.Engine and the realm-stream DstSeq) when the sharded
// engine became the only one, so every enabled realm carries exactly
// its per-lane snapshots; 6 replaced the fleet's own flow and stream
// state with the traffic realm kernel's snapshot (RealmCkpt.Kernel)
// when the fleet began stepping that kernel, carried the population as
// traffic.Member records, and dropped the provisioning state (Enabled,
// Provision, PoolSize, Epoch), which Resume now replays from the
// timeline; 7 replaced each lane's random-stream position — two draw
// counts that restore replayed draw by draw — with the stream's
// one-word state (nat.Snapshot.Rand) when the NAT moved onto the
// engines' SplitMix64 generator, and dropped the sequential cursors'
// always-true seeded flag — a version-6 checkpoint would decode, since
// gob drops the unknown fields, but restore every lane's stream at word
// 0, diverging from the run it was cut from; 8 stored each lane's metric
// counters as a name-sorted list (nat.Snapshot.CounterList) instead of
// a map and sorted the chunk and destination lists, so one state
// encodes to one byte string — a version-7 checkpoint would decode but
// restore every counter at zero.
const (
	checkpointMagic   = "CGNFLEET"
	checkpointVersion = 8
)

// Checkpoint is the serialized fleet state at a day boundary. Together
// with the (unserialized) Config it fully determines the rest of the
// run: Resume continues byte-identically — per-realm StateDigests and
// E21 output match an uninterrupted run exactly, at any Workers value
// and any shard count.
type Checkpoint struct {
	// Sig fingerprints the determinism-relevant configuration; Resume
	// refuses a checkpoint taken under a different one. Workers and the
	// shard count are excluded: they never affect results.
	Sig string
	// Day is the next virtual day to run (== days completed).
	Day           int
	EventsApplied int
	Realms        []RealmCkpt
}

// HistState is a serialized traffic.Hist.
type HistState struct {
	Counts []uint64
	N      uint64
}

// RealmCkpt is one carrier's serialized state: the fleet's own — the
// population, the realm stream, the accumulated samples and counters,
// the observation rings — plus the kernel's snapshot. The provisioning
// state is not stored; Resume replays it from the timeline.
type RealmCkpt struct {
	// Pop is the subscriber population in member order.
	Pop []traffic.Member

	// Fr is the realm stream: member classes and the seeds of each
	// kernel's per-lane streams.
	Fr uint64

	Created    uint64
	Expired    uint64
	Refreshes  uint64
	Failures   uint64
	PeakUtil   float64
	ClassHists [3]HistState
	AllHist    HistState

	EvRing, EnRing []bool

	// Kernel is the realm kernel's state for a carrier running CGN, nil
	// while disabled.
	Kernel *traffic.RealmSnapshot
}

// signature fingerprints the parts of the configuration that determine
// results. Workers and Shards are execution-only.
func (c Config) signature() string {
	d := c.withDefaults()
	d.Workers = 0
	d.Shards = 0
	sum := sha256.Sum256([]byte(fmt.Sprintf("cgn fleet v%d %#v", checkpointVersion, d)))
	return hex.EncodeToString(sum[:8])
}

// Checkpoint captures the simulation's complete state. Sim steps whole
// days, so every capture is at a day boundary — the granularity the
// restore contract is defined at.
func (s *Sim) Checkpoint() *Checkpoint {
	ck := &Checkpoint{
		Sig:           s.cfg.signature(),
		Day:           s.day,
		EventsApplied: s.applied,
	}
	for _, r := range s.realms {
		rc := RealmCkpt{
			Pop:       slices.Clone(r.pop),
			Fr:        uint64(r.fr),
			Created:   r.tally.Created,
			Expired:   r.tally.Expired,
			Refreshes: r.tally.Refreshes,
			Failures:  r.tally.Failures,
			PeakUtil:  r.tally.PeakUtil,
			AllHist:   histState(&r.tally.AllHist),
			EvRing:    slices.Clone(r.evRing),
			EnRing:    slices.Clone(r.enRing),
		}
		for c := range rc.ClassHists {
			rc.ClassHists[c] = histState(&r.tally.ClassHists[c])
		}
		if r.k != nil {
			rc.Kernel = r.k.Snapshot()
		}
		ck.Realms = append(ck.Realms, rc)
	}
	return ck
}

func histState(h *traffic.Hist) HistState {
	counts, n := h.State()
	return HistState{Counts: counts, N: n}
}

// Resume rebuilds a simulation from a checkpoint taken under the same
// configuration. Workers and the shard count may differ from the
// checkpointing process's. The checkpoint is untrusted input: anything
// inconsistent with the configuration is an error, never a panic.
func Resume(cfg Config, ck *Checkpoint) (*Sim, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	d := cfg.withDefaults()
	if sig := cfg.signature(); ck.Sig != sig {
		return nil, fmt.Errorf("fleet: checkpoint config signature %s does not match this configuration (%s); resume needs the run's exact fleet, timeline, profile and seed", ck.Sig, sig)
	}
	if ck.Day < 0 || ck.Day > d.Days {
		return nil, fmt.Errorf("fleet: checkpoint day %d outside horizon [0,%d]", ck.Day, d.Days)
	}
	if len(ck.Realms) != len(d.Carriers) {
		return nil, fmt.Errorf("fleet: checkpoint has %d realms, configuration %d", len(ck.Realms), len(d.Carriers))
	}
	s := &Sim{cfg: d, events: d.Timeline.sorted(), day: ck.Day}
	for s.evIdx < len(s.events) && s.events[s.evIdx].Day < ck.Day {
		s.evIdx++
	}
	s.applied = s.evIdx
	if s.applied != ck.EventsApplied {
		return nil, fmt.Errorf("fleet: checkpoint records %d applied events, timeline implies %d by day %d", ck.EventsApplied, s.applied, ck.Day)
	}
	ringLen := d.Obs.Windows[len(d.Obs.Windows)-1]
	if ringLen > d.Days {
		ringLen = d.Days
	}
	for i, spec := range d.Carriers {
		s.realms = append(s.realms, newRealmSim(i, spec, d.Seed, ringLen))
	}
	// Replay the provisioning state — CGN on or off, pool generation,
	// engine epoch — and the fault counts over the timeline so far.
	for _, ev := range s.events[:s.evIdx] {
		s.realms[ev.Carrier].replan(ev)
		s.countFault(ev)
	}
	for i, r := range s.realms {
		rc := &ck.Realms[i]
		if len(rc.EvRing) != ringLen || len(rc.EnRing) != ringLen {
			return nil, fmt.Errorf("fleet: realm %d observation rings have %d/%d days, configuration implies %d", i, len(rc.EvRing), len(rc.EnRing), ringLen)
		}
		if len(rc.Pop) > maxSubscribers {
			return nil, fmt.Errorf("fleet: realm %d has %d subscribers, exceeding the %d cap", i, len(rc.Pop), maxSubscribers)
		}
		for j, m := range rc.Pop {
			if m.Class > traffic.Heavy {
				return nil, fmt.Errorf("fleet: realm %d subscriber %d has unknown class %d", i, j, m.Class)
			}
		}
		r.pop = slices.Clone(rc.Pop)
		r.fr = fastrand.Rand(rc.Fr)
		r.tally = traffic.Tally{
			AllHist:   traffic.HistFromState(rc.AllHist.Counts, rc.AllHist.N),
			Refreshes: rc.Refreshes,
			PeakUtil:  rc.PeakUtil,
			Created:   rc.Created,
			Expired:   rc.Expired,
			Failures:  rc.Failures,
		}
		for c := range r.tally.ClassHists {
			r.tally.ClassHists[c] = traffic.HistFromState(rc.ClassHists[c].Counts, rc.ClassHists[c].N)
		}
		r.evRing = slices.Clone(rc.EvRing)
		r.enRing = slices.Clone(rc.EnRing)
		switch {
		case r.enabled && rc.Kernel == nil:
			return nil, fmt.Errorf("fleet: realm %d runs CGN by day %d but has no kernel state", i, ck.Day)
		case !r.enabled && rc.Kernel != nil:
			return nil, fmt.Errorf("fleet: realm %d has CGN disabled by day %d but carries kernel state", i, ck.Day)
		case r.enabled:
			k, err := traffic.RestoreRealm(d.Profile, r.engineConfig(), d.Shards, r.pop, rc.Kernel)
			if err != nil {
				return nil, fmt.Errorf("fleet: realm %d: %w", i, err)
			}
			r.k = k
		}
	}
	return s, nil
}

// encode renders the checkpoint in the file format.
func (ck *Checkpoint) encode() ([]byte, error) {
	var buf bytes.Buffer
	buf.WriteString(checkpointMagic)
	var ver [4]byte
	binary.BigEndian.PutUint32(ver[:], checkpointVersion)
	buf.Write(ver[:])
	if err := gob.NewEncoder(&buf).Encode(ck); err != nil {
		return nil, fmt.Errorf("fleet: checkpoint encode: %w", err)
	}
	sum := sha256.Sum256(buf.Bytes())
	buf.Write(sum[:])
	return buf.Bytes(), nil
}

// DecodeCheckpoint parses checkpoint bytes, rejecting — with an error,
// never a panic — anything that is not a complete, intact checkpoint
// this build can read.
func DecodeCheckpoint(data []byte) (*Checkpoint, error) {
	header := len(checkpointMagic) + 4
	if len(data) < header+sha256.Size {
		return nil, errors.New("fleet: checkpoint truncated (shorter than header and checksum)")
	}
	if string(data[:len(checkpointMagic)]) != checkpointMagic {
		return nil, errors.New("fleet: not a cgnsimd checkpoint (bad magic)")
	}
	body, trailer := data[:len(data)-sha256.Size], data[len(data)-sha256.Size:]
	sum := sha256.Sum256(body)
	if !bytes.Equal(sum[:], trailer) {
		return nil, errors.New("fleet: checkpoint corrupt (checksum mismatch — truncated or damaged file)")
	}
	ver := binary.BigEndian.Uint32(data[len(checkpointMagic):header])
	if ver != checkpointVersion {
		return nil, fmt.Errorf("fleet: checkpoint format version %d; this build reads version %d", ver, checkpointVersion)
	}
	var ck Checkpoint
	if err := gob.NewDecoder(bytes.NewReader(body[header:])).Decode(&ck); err != nil {
		return nil, fmt.Errorf("fleet: checkpoint decode: %w", err)
	}
	return &ck, nil
}

// SaveCheckpoint writes the checkpoint to path atomically: a temp file
// in the destination directory, then rename. A crash mid-write leaves
// the previous checkpoint (if any) untouched and no partial file under
// the destination name.
func SaveCheckpoint(path string, ck *Checkpoint) error {
	data, err := ck.encode()
	if err != nil {
		return err
	}
	return writeFileAtomic(path, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

// LoadCheckpoint reads and validates a checkpoint file.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	ck, err := DecodeCheckpoint(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return ck, nil
}

// writeFileAtomic writes via a temp file in path's directory and
// renames into place, fsyncing before the rename and fsyncing the
// parent directory after it — without the latter a power cut can lose
// the rename itself and leave the directory pointing at the old file
// (or nothing). On any failure — including mid-write — the temp file is
// removed and the destination is left exactly as it was.
func writeFileAtomic(path string, write func(w io.Writer) error) (err error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if err = write(tmp); err != nil {
		return err
	}
	if err = tmp.Sync(); err != nil {
		return err
	}
	if err = tmp.Close(); err != nil {
		return err
	}
	if err = os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so a just-renamed entry survives a crash.
// Filesystems that cannot sync directories (some network mounts) make
// this a no-op rather than an error — the rename itself succeeded.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !errors.Is(err, errors.ErrUnsupported) {
		return err
	}
	return nil
}

// ringPath is retention generation i's file name: the live path for the
// newest, path.1, path.2, … for the older generations.
func ringPath(path string, i int) string {
	if i == 0 {
		return path
	}
	return fmt.Sprintf("%s.%d", path, i)
}

// SaveCheckpointRing writes the checkpoint to path, first rotating the
// existing generations one slot up (path → path.1 → … → path.keep-1,
// the oldest falling off) so the newest keep generations survive. Each
// shift is a rename in one directory — atomic on POSIX — and the final
// write is SaveCheckpoint's temp+fsync+rename, so a crash at any point
// leaves every surviving generation intact; at worst the live path is
// missing and the newest state sits at path.1, which
// LoadCheckpointNewest handles.
func SaveCheckpointRing(path string, ck *Checkpoint, keep int) error {
	if keep < 1 {
		keep = 1
	}
	for i := keep - 1; i >= 1; i-- {
		if err := os.Rename(ringPath(path, i-1), ringPath(path, i)); err != nil && !errors.Is(err, os.ErrNotExist) {
			return err
		}
	}
	return SaveCheckpoint(path, ck)
}

// LoadCheckpointNewest scans the retention ring at path — path, path.1,
// path.2, … — and returns the newest generation that decodes and
// validates, with its ring index. A missing or damaged generation falls
// back to the next older one; the live path itself may be missing (the
// crash window between the ring shift and the fresh write) without
// ending the scan, but past it the first missing file does.
func LoadCheckpointNewest(path string) (*Checkpoint, int, error) {
	var firstErr error
	for i := 0; ; i++ {
		ck, err := LoadCheckpoint(ringPath(path, i))
		if err == nil {
			return ck, i, nil
		}
		if errors.Is(err, os.ErrNotExist) {
			if i == 0 {
				continue
			}
			break
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	if firstErr == nil {
		firstErr = fmt.Errorf("fleet: no checkpoint found at %s", path)
	}
	return nil, 0, firstErr
}

// RetryPolicy parameterizes SaveCheckpointRetry: how many generations
// to retain, how often to retry a failed write, and the virtual-time
// backoff between attempts. FailProb injects deterministic write
// failures before the file is touched — the fault-drill knob behind
// cgnsimd's -fault-checkpoint-fail — drawn from a stream seeded by
// (Seed, Key) so every save has its own reproducible sequence.
type RetryPolicy struct {
	// Keep is the retention-ring depth; < 1 means 1 (no older
	// generations).
	Keep int
	// MaxAttempts bounds total write attempts; < 1 means 1 (no
	// retries).
	MaxAttempts int
	// BackoffBase is the virtual backoff before the first retry,
	// doubling each further retry, plus seeded jitter of up to half the
	// step. Virtual: it is accounted, never slept.
	BackoffBase time.Duration
	// Seed and Key seed the jitter and injection stream; Key
	// discriminates saves (cgnsimd passes the virtual day).
	Seed int64
	Key  uint64
	// FailProb is the per-attempt injected-failure probability in
	// [0, 1]; zero disables injection.
	FailProb float64
}

// RetryOutcome reports what SaveCheckpointRetry did.
type RetryOutcome struct {
	// Attempts counts write attempts made (>= 1); Retries counts the
	// re-attempts among them.
	Attempts, Retries int
	// VirtualBackoff is the total backoff accounted between attempts.
	VirtualBackoff time.Duration
	// Injected counts attempts failed by FailProb rather than the
	// filesystem.
	Injected int
}

// errInjectedWrite marks a FailProb-drawn failure.
var errInjectedWrite = errors.New("fleet: injected checkpoint write failure")

// SaveCheckpointRetry writes the checkpoint through the retention ring,
// retrying failed attempts with exponential backoff in virtual time —
// the simulation clock never waits on the wall, so the backoff is
// accounted in the outcome instead of slept. Returns the outcome along
// with the last error when every attempt failed.
func SaveCheckpointRetry(path string, ck *Checkpoint, pol RetryPolicy) (RetryOutcome, error) {
	keep, attempts := pol.Keep, pol.MaxAttempts
	if keep < 1 {
		keep = 1
	}
	if attempts < 1 {
		attempts = 1
	}
	fr := fastrand.Rand(uint64(pol.Seed)*0x9E3779B97F4A7C15 ^ (pol.Key+1)*0xD1B54A32D192ED03)
	var out RetryOutcome
	var lastErr error
	for a := 1; a <= attempts; a++ {
		out.Attempts = a
		var err error
		if pol.FailProb > 0 && fr.Float64() < pol.FailProb {
			out.Injected++
			err = errInjectedWrite
		} else {
			err = SaveCheckpointRing(path, ck, keep)
		}
		if err == nil {
			return out, nil
		}
		lastErr = err
		if a < attempts {
			out.Retries++
			if step := pol.BackoffBase << (a - 1); step > 0 {
				jitterMs := uint32(1)
				if half := step / 2 / time.Millisecond; half > 0 {
					if half > 60_000 {
						half = 60_000
					}
					jitterMs += uint32(half)
				}
				out.VirtualBackoff += step + time.Duration(fr.Intn(jitterMs))*time.Millisecond
			}
		}
	}
	return out, lastErr
}
