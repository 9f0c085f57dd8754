package spectral

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// Checkpointing: production DNS campaigns integrate "many thousands of
// time steps" (§2) across many job allocations, so the solution must
// be able to leave and re-enter the machine exactly. Each rank writes
// its own Fourier-space slab (one file per rank, the pattern used on
// parallel file systems like Summit's SpectrumScale), with a
// self-describing header and a CRC so a corrupted restart is detected
// rather than silently integrated.

const (
	ckptMagic = 0x50534e53 // "PSNS"
	// ckptVersion 2 makes the file self-describing about its physics:
	// after the fixed header it records the equation-set name (so a
	// restart into a different system is rejected explicitly rather
	// than misread positionally) and, for forced systems, the
	// stochastic-forcing controller state (KF, Eps, TCorr, Seed — the
	// phase walk is stateless given seed and step, so these four
	// values restore it exactly), and it serializes all registry
	// fields generically rather than assuming the 3-velocity layout.
	// Version-1 files remain readable for the plain "ns" system they
	// were all written under; writes always produce version 2. Files
	// from the removed coupled-scalar path, which appended scalar
	// payloads after the system fields, record more fields than their
	// system has and fail the field-count check.
	ckptVersion = 2
)

type ckptHeader struct {
	Magic   uint32
	Version uint32
	N       uint64
	Ranks   uint64
	Rank    uint64
	Step    uint64
	Time    float64
	Nu      float64
	Fields  uint64 // system fields
}

// ckptForcing is the serialized StochasticForcing controller state.
type ckptForcing struct {
	KF    uint64
	Eps   float64
	TCorr float64
	Seed  int64
}

// forcingHolder is the accessor a forceable system exposes (ForcedNS
// and RotatingScalarNS do); the checkpoint uses it to round-trip
// controller state. A nil controller means the system runs unforced.
type forcingHolder interface {
	Forcing() *StochasticForcing
}

// forcing returns the solver's forcing controller, nil when the system
// has none or runs unforced.
func (s *Solver) forcing() *StochasticForcing {
	if fh, ok := s.sys.(forcingHolder); ok {
		return fh.Forcing()
	}
	return nil
}

// WriteCheckpointTo serializes this rank's state to w.
func (s *Solver) WriteCheckpointTo(w io.Writer) error {
	bw := bufio.NewWriter(w)
	crc := crc32.NewIEEE()
	out := io.MultiWriter(bw, crc)
	hdr := ckptHeader{
		Magic:   ckptMagic,
		Version: ckptVersion,
		N:       uint64(s.cfg.N),
		Ranks:   uint64(s.comm.Size()),
		Rank:    uint64(s.slab.Rank),
		Step:    uint64(s.step),
		Time:    s.time,
		Nu:      s.cfg.Nu,
		Fields:  uint64(s.nf),
	}
	if err := binary.Write(out, binary.LittleEndian, &hdr); err != nil {
		return fmt.Errorf("checkpoint header: %w", err)
	}
	name := []byte(s.sys.Name())
	if err := binary.Write(out, binary.LittleEndian, uint32(len(name))); err != nil {
		return fmt.Errorf("checkpoint system name: %w", err)
	}
	if _, err := out.Write(name); err != nil {
		return fmt.Errorf("checkpoint system name: %w", err)
	}
	var present uint32
	var fstate ckptForcing
	if f := s.forcing(); f != nil {
		present = 1
		fstate = ckptForcing{KF: uint64(f.KF), Eps: f.Eps, TCorr: f.TCorr, Seed: f.Seed}
	}
	if err := binary.Write(out, binary.LittleEndian, present); err != nil {
		return fmt.Errorf("checkpoint forcing flag: %w", err)
	}
	if present == 1 {
		if err := binary.Write(out, binary.LittleEndian, &fstate); err != nil {
			return fmt.Errorf("checkpoint forcing state: %w", err)
		}
	}
	for c := 0; c < s.nf; c++ {
		if err := binary.Write(out, binary.LittleEndian, s.state[c]); err != nil {
			return fmt.Errorf("checkpoint field %d: %w", c, err)
		}
	}
	if err := binary.Write(bw, binary.LittleEndian, crc.Sum32()); err != nil {
		return fmt.Errorf("checkpoint crc: %w", err)
	}
	return bw.Flush()
}

// ReadCheckpointFrom restores this rank's state from r, validating
// geometry, rank identity, system, forcing presence, field count and
// the CRC. The solver must already be constructed with a matching
// configuration.
func (s *Solver) ReadCheckpointFrom(r io.Reader) error {
	crc := crc32.NewIEEE()
	in := io.TeeReader(bufio.NewReader(r), crc)
	var hdr ckptHeader
	if err := binary.Read(in, binary.LittleEndian, &hdr); err != nil {
		return fmt.Errorf("checkpoint header: %w", err)
	}
	switch {
	case hdr.Magic != ckptMagic:
		return fmt.Errorf("checkpoint: bad magic %#x", hdr.Magic)
	case hdr.Version != 1 && hdr.Version != ckptVersion:
		return fmt.Errorf("checkpoint: unsupported version %d", hdr.Version)
	case hdr.N != uint64(s.cfg.N):
		return fmt.Errorf("checkpoint: N=%d, solver has %d", hdr.N, s.cfg.N)
	case hdr.Ranks != uint64(s.comm.Size()):
		return fmt.Errorf("checkpoint: written on %d ranks, running on %d", hdr.Ranks, s.comm.Size())
	case hdr.Rank != uint64(s.slab.Rank):
		return fmt.Errorf("checkpoint: file is rank %d, this is rank %d", hdr.Rank, s.slab.Rank)
	}
	nf := 3 // version-1 layout: exactly the three velocity components
	if hdr.Version == 1 {
		// v1 files carry no system identity and were all written under
		// the pre-registry 3-velocity layout; restoring them into any
		// richer system would misattribute state positionally.
		if s.sys.Name() != "ns" {
			return fmt.Errorf("checkpoint: version-1 file carries no system identity; solver runs %q (only plain \"ns\" restores v1 files)", s.sys.Name())
		}
	} else {
		var nlen uint32
		if err := binary.Read(in, binary.LittleEndian, &nlen); err != nil {
			return fmt.Errorf("checkpoint system name: %w", err)
		}
		if nlen > 256 {
			return fmt.Errorf("checkpoint: implausible system-name length %d (corrupted file)", nlen)
		}
		name := make([]byte, nlen)
		if _, err := io.ReadFull(in, name); err != nil {
			return fmt.Errorf("checkpoint system name: %w", err)
		}
		if string(name) != s.sys.Name() {
			return fmt.Errorf("checkpoint: written by system %q, solver runs %q (construct the solver with the matching system before restoring)", name, s.sys.Name())
		}
		var present uint32
		if err := binary.Read(in, binary.LittleEndian, &present); err != nil {
			return fmt.Errorf("checkpoint forcing flag: %w", err)
		}
		f := s.forcing()
		if present == 1 {
			var fstate ckptForcing
			if err := binary.Read(in, binary.LittleEndian, &fstate); err != nil {
				return fmt.Errorf("checkpoint forcing state: %w", err)
			}
			if f == nil {
				return fmt.Errorf("checkpoint: file records forcing state but system %q has no forcing controller", s.sys.Name())
			}
			f.KF, f.Eps, f.TCorr, f.Seed = int(fstate.KF), fstate.Eps, fstate.TCorr, fstate.Seed
		}
		nf = s.nf
	}
	if hdr.Fields != uint64(nf) {
		return fmt.Errorf("checkpoint: %d fields written, %d expected", hdr.Fields, nf)
	}
	for c := 0; c < nf; c++ {
		if err := binary.Read(in, binary.LittleEndian, s.state[c]); err != nil {
			return fmt.Errorf("checkpoint field %d: %w", c, err)
		}
	}
	// Snapshot the digest of the payload, then read the trailer (the
	// trailer itself is not covered by the CRC).
	want := crc.Sum32()
	var got uint32
	if err := binary.Read(in, binary.LittleEndian, &got); err != nil {
		return fmt.Errorf("checkpoint crc: %w", err)
	}
	if got != want {
		return fmt.Errorf("checkpoint: crc mismatch %#x != %#x (corrupted file)", got, want)
	}
	s.step = int(hdr.Step)
	s.time = hdr.Time
	return nil
}

// ckptPath names this rank's file inside dir.
func ckptPath(dir string, rank int) string {
	return filepath.Join(dir, fmt.Sprintf("ckpt_rank%05d.bin", rank))
}

// SaveCheckpoint writes one file per rank under dir (collective: every
// rank must call it; dir is created if needed).
func (s *Solver) SaveCheckpoint(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(ckptPath(dir, s.slab.Rank))
	if err != nil {
		return err
	}
	werr := s.WriteCheckpointTo(f)
	cerr := f.Close()
	s.comm.Barrier() // checkpoint is complete only when every rank is done
	if werr != nil {
		return werr
	}
	return cerr
}

// LoadCheckpoint restores this rank's state from dir (collective).
func (s *Solver) LoadCheckpoint(dir string) error {
	f, err := os.Open(ckptPath(dir, s.slab.Rank))
	if err != nil {
		return err
	}
	defer f.Close()
	rerr := s.ReadCheckpointFrom(f)
	s.comm.Barrier()
	return rerr
}
