// Package checkpoint implements the other class of intermittence support
// the paper discusses (§2.1): software checkpointing in the style of
// Mementos/DINO/Ratchet. Instead of making every loop iteration durable
// (SONIC's loop continuation) or privatizing task-shared writes (Alpaca),
// a checkpointing system periodically dumps its volatile execution state —
// registers and live stack — to non-volatile memory and, after a power
// failure, restores the last dump and re-executes everything since.
//
// The implementation runs SONIC's idempotent kernels under a periodic
// checkpoint policy: the durable loop cursor (standing in for the saved
// register file) is written only every Interval-th iteration, at a cost of
// a RegWords-word volatile-state dump, and iterations in between keep
// their indices in registers. Structural boundaries where range
// re-execution would not be idempotent (buffer swaps, layer transitions,
// and every sparse undo-logging iteration) always checkpoint — the same
// WAR-hazard-driven checkpoint placement DINO performs.
//
// This reproduces the tradeoff the paper summarizes with "prior work
// showed that [task-based models] are more efficient than checkpointing
// models": small intervals pay constant dump overhead; large intervals
// waste re-executed work on every failure and, like large task tiles, risk
// non-termination when an inter-checkpoint region exceeds the energy
// buffer.
package checkpoint

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/fixed"
	"repro/internal/mcu"
	"repro/internal/sonic"
)

// DefaultRegWords models the volatile state a conservative software
// checkpoint must persist: a 16-word register file plus live stack.
const DefaultRegWords = 64

// Checkpoint is a periodic-checkpointing inference runtime.
type Checkpoint struct {
	// Interval is the number of loop iterations between checkpoints.
	Interval int
	// RegWords overrides the modelled dump size (default DefaultRegWords).
	RegWords int
}

// Name identifies the runtime, e.g. "ckpt-64".
func (c Checkpoint) Name() string { return fmt.Sprintf("ckpt-%d", c.Interval) }

// Infer runs one inference under the periodic checkpoint policy.
func (c Checkpoint) Infer(img *core.Image, input []fixed.Q15) ([]fixed.Q15, error) {
	if err := img.LoadInput(input); err != nil {
		return nil, err
	}
	return c.ResumeInfer(img, nil)
}

// ResumeInfer implements core.Resumer: Infer minus LoadInput, with an
// optional pre-attempt hook for restoring a forked prefix.
func (c Checkpoint) ResumeInfer(img *core.Image, atReboot func() error) ([]fixed.Q15, error) {
	if c.Interval < 2 {
		return nil, fmt.Errorf("checkpoint: interval must be >= 2 (got %d); use SONIC for per-iteration durability", c.Interval)
	}
	reg := c.RegWords
	if reg == 0 {
		reg = DefaultRegWords
	}
	e := &sonic.Exec{Img: img, Dev: img.Dev, Every: c.Interval, RegWords: reg}
	e.Dev.Emit(mcu.TraceRunBegin, c.Name(), int64(c.Interval))
	if atReboot != nil {
		if err := atReboot(); err != nil {
			return nil, err
		}
	}
	if err := e.Dev.Run(func() {
		e.ResetVolatile()
		e.Run((*sonic.Exec).RunLayerSoftware)
	}); err != nil {
		return nil, err
	}
	e.Dev.FlushTrace()
	return img.ReadOutput(sonic.FinalParity(img.Model)), nil
}
