package fault

import (
	"fmt"
	"io"
	"os"
	"sync"

	"mburst/internal/trace"
)

// WriteChaos injects the two archive-write failure modes the durable
// collection plane must survive:
//
//   - a torn write — the process dies mid-write, a partial frame lands
//     on the open segment's tail, and the write returns an error (the
//     crash-soak harness then abandons the pipeline, as a real kill
//     would);
//   - a short write — only a prefix reaches the disk but the write
//     reports full success, modeling a storage stack that lies about
//     durability. The archive believes the batch is safe; the lie
//     surfaces after the crash as a resume Shortfall.
//
// Both are one-shot: Arm* primes the next write to any file opened
// through Wrap, which consumes the arming. Wrap decorates
// trace.ArchiveConfig.Open, the archive's one disk hook.
type WriteChaos struct {
	mu        sync.Mutex
	tornFrac  float64
	torn      bool
	shortFrac float64
	short     bool
	m         Metrics
}

// NewWriteChaos returns an unarmed injector feeding m (which may be nil).
func NewWriteChaos(m *Metrics) *WriteChaos {
	c := &WriteChaos{}
	if m != nil {
		c.m = *m
	}
	return c
}

// ArmTorn primes the next write to persist frac of its payload and fail.
func (c *WriteChaos) ArmTorn(frac float64) {
	c.mu.Lock()
	c.torn, c.tornFrac = true, frac
	c.mu.Unlock()
}

// ArmShort primes the next write to persist frac of its payload while
// reporting complete success.
func (c *WriteChaos) ArmShort(frac float64) {
	c.mu.Lock()
	c.short, c.shortFrac = true, frac
	c.mu.Unlock()
}

// Wrap returns an opener whose files are next's with the injector on
// their writes; Sync and Close go to next's file. A nil next opens with
// os.Create, as trace.ArchiveConfig.Open does. Pass it as
// trace.ArchiveConfig.Open.
func (c *WriteChaos) Wrap(next trace.Opener) trace.Opener {
	if next == nil {
		next = func(path string) (io.WriteCloser, error) { return os.Create(path) }
	}
	return func(path string) (io.WriteCloser, error) {
		f, err := next(path)
		if err != nil {
			return nil, err
		}
		return &chaosFile{WriteCloser: f, chaos: c}, nil
	}
}

// chaosFile is a segment file with the injector on its writes; Close is
// the file's own.
type chaosFile struct {
	io.WriteCloser
	chaos *WriteChaos
}

// Sync fsyncs the file underneath, when it can be.
func (cf *chaosFile) Sync() error {
	if s, ok := cf.WriteCloser.(interface{ Sync() error }); ok {
		return s.Sync()
	}
	return nil
}

func (cf *chaosFile) Write(p []byte) (int, error) {
	c := cf.chaos
	c.mu.Lock()
	switch {
	case c.torn:
		c.torn = false
		keep := int(c.tornFrac * float64(len(p)))
		c.mu.Unlock()
		c.m.TornWrites.Inc()
		if keep > 0 {
			if n, err := cf.WriteCloser.Write(p[:keep]); err != nil {
				return n, err
			}
		}
		return keep, fmt.Errorf("fault: write torn after %d/%d bytes: %w", keep, len(p), ErrInjected)
	case c.short:
		c.short = false
		keep := int(c.shortFrac * float64(len(p)))
		c.mu.Unlock()
		c.m.ShortWrites.Inc()
		if keep > 0 {
			if n, err := cf.WriteCloser.Write(p[:keep]); err != nil {
				return n, err
			}
		}
		// The lie: the caller is told every byte landed.
		return len(p), nil
	}
	c.mu.Unlock()
	return cf.WriteCloser.Write(p)
}
