package core

import (
	"encoding/binary"
	"fmt"
	"math"

	"github.com/ftpim/ftpim/internal/ckpt"
	"github.com/ftpim/ftpim/internal/data"
	"github.com/ftpim/ftpim/internal/nn"
	"github.com/ftpim/ftpim/internal/obs"
	"github.com/ftpim/ftpim/internal/optim"
	"github.com/ftpim/ftpim/internal/prune"
	"github.com/ftpim/ftpim/internal/tensor"
)

// Checkpoint section names. "train" carries the trainMeta binary
// encoding; the rest carry the state it describes. Checkpoints without
// a "train" section predate that encoding and are refused undecoded.
const (
	secMeta = "train" // trainMeta (marshalMeta)
	secNet  = "net"   // nn.Network snapshot (params, masks, BN stats)
	secOpt  = "opt"   // SGD momentum buffers (tensor list)
	secRNG  = "rng"   // shuffle/augmentation RNG cursor (tensor.RNG state)
	secBest = "best"  // KeepBest network snapshot (present iff HasBest)
	secADMM = "admm"  // prune.ADMMState Z then U (tensor list, present iff ADMM configured)
)

// trainMeta identifies the training position a checkpoint captures and
// carries the run state that is not tensors or RNG state. A checkpoint
// is only resumed when Seed, Stage, Epochs, and FaultRate all match
// the configured run — otherwise it belongs to a different experiment
// and is ignored.
type trainMeta struct {
	Seed      uint64
	Stage     int
	Epochs    int // per-stage epoch budget of the run that wrote this
	Epoch     int // completed epochs within the stage
	FaultRate float64
	Samples   int

	BestEvalAcc float64
	BestEpoch   int
	HasBest     bool

	// History is the rung-local epoch trace up to Epoch; Prefix is the
	// cumulative trace of completed earlier stages (ProgressiveFT),
	// round-tripped so a resumed ladder reports the full history.
	History []EpochStats
	Prefix  []EpochStats

	// Perm is the loader's shuffle permutation (data.Loader.PermState).
	Perm []int
}

// marshalMeta encodes m as fixed little-endian binary — not JSON,
// which cannot encode the NaN or ±Inf loss of a diverged run. Floats
// are stored as bit patterns, ints as 64-bit two's complement:
//
//	u64 Seed; i64 Stage, Epochs, Epoch; f64 FaultRate; i64 Samples;
//	u8 0; f64 BestEvalAcc; i64 BestEpoch; u8 HasBest;
//	History, Prefix: u32 count, then per epoch i64 Epoch and
//	f64 LR, Loss, TrainAcc, EvalAcc, FaultRate;
//	Perm: u32 count, then u32 indices
func marshalMeta(m *trainMeta) []byte {
	b := binary.LittleEndian.AppendUint64(nil, m.Seed)
	b = appendI64(b, m.Stage, m.Epochs, m.Epoch)
	b = appendF64(b, m.FaultRate)
	b = appendI64(b, m.Samples)
	b = append(b, 0) // the numerics tier byte; see unmarshalMeta
	b = appendF64(b, m.BestEvalAcc)
	b = appendI64(b, m.BestEpoch)
	b = append(b, boolByte(m.HasBest))
	for _, h := range [][]EpochStats{m.History, m.Prefix} {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(h)))
		for _, e := range h {
			b = appendI64(b, e.Epoch)
			b = appendF64(b, e.LR, e.Loss, e.TrainAcc, e.EvalAcc, e.FaultRate)
		}
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(m.Perm)))
	for _, p := range m.Perm {
		b = binary.LittleEndian.AppendUint32(b, uint32(p))
	}
	return b
}

// epochStatsSize is the encoded size of one EpochStats record.
const epochStatsSize = 6 * 8

// unmarshalMeta decodes marshalMeta's output, accepting nothing else:
// the byte at offset 48 must be 0, HasBest must be 0 or 1, and the
// payload must be consumed exactly. The byte once recorded the numerics
// tier; 1 marks a checkpoint of the retired fast tier, which cannot
// resume bit-identically under exact. Loader.SetPermState validates
// Perm.
func unmarshalMeta(b []byte) (*trainMeta, error) {
	r := ckpt.NewReader(b)
	i64 := func() int { return int(int64(r.U64())) }
	m := &trainMeta{Seed: r.U64(), Stage: i64(), Epochs: i64(), Epoch: i64(), FaultRate: r.F64(), Samples: i64()}
	tier := r.U8()
	m.BestEvalAcc, m.BestEpoch, m.HasBest = r.F64(), i64(), r.Bool()
	if tier != 0 {
		return nil, fmt.Errorf("numerics tier byte %d: only exact (0) checkpoints resume", tier)
	}
	for _, h := range []*[]EpochStats{&m.History, &m.Prefix} {
		n := int(r.U32())
		if n > r.Remaining()/epochStatsSize {
			return nil, fmt.Errorf("history of %d epochs exceeds the payload", n)
		}
		*h = make([]EpochStats, n)
		for i := range *h {
			(*h)[i] = EpochStats{Epoch: i64(), LR: r.F64(), Loss: r.F64(), TrainAcc: r.F64(), EvalAcc: r.F64(), FaultRate: r.F64()}
		}
	}
	n := int(r.U32())
	if n > r.Remaining()/4 {
		return nil, fmt.Errorf("permutation of %d entries exceeds the payload", n)
	}
	m.Perm = make([]int, n)
	for i := range m.Perm {
		m.Perm[i] = int(r.U32())
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return m, nil
}

func appendI64(b []byte, vs ...int) []byte {
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint64(b, uint64(int64(v)))
	}
	return b
}

func appendF64(b []byte, vs ...float64) []byte {
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

func boolByte(v bool) byte {
	if v {
		return 1
	}
	return 0
}

// ckptSaver threads crash-safe checkpointing through one Train call.
// A nil *ckptSaver is the disabled configuration: every method is a
// nil-check away from a plain return, so the no-checkpoint run path
// does not allocate or branch beyond that check (pinned by
// TestCkptDisabledAddsZeroAllocs).
type ckptSaver struct {
	run   *ckpt.Run
	every int
	sink  obs.Sink

	net    *nn.Network
	opt    *optim.SGD
	rng    *tensor.RNG
	loader *data.Loader
	admm   *prune.ADMM

	seed   uint64
	stage  int
	epochs int
	rate   float64
	prefix []EpochStats

	// pending is the fully captured state of the last completed epoch;
	// saved tracks whether it already reached disk, so a cancellation
	// mid-epoch can flush the last boundary exactly once.
	pending map[string][]byte
	saved   bool
}

// newCkptSaver builds the saver for a normalized config, or nil when
// checkpointing is disabled.
func newCkptSaver(cfg *Config, net *nn.Network, opt *optim.SGD, rng *tensor.RNG, loader *data.Loader) *ckptSaver {
	if cfg.Ckpt == nil {
		return nil
	}
	every := cfg.CkptEvery
	if every < 1 {
		every = 1
	}
	rate := cfg.FaultRate
	if cfg.Pinned != nil {
		rate = cfg.Pinned.Psa
	}
	return &ckptSaver{
		run: cfg.Ckpt, every: every, sink: cfg.Sink,
		net: net, opt: opt, rng: rng, loader: loader, admm: cfg.ADMM,
		seed: cfg.Seed, stage: cfg.ckptStage, epochs: cfg.Epochs,
		rate: rate, prefix: cfg.ckptPrefix,
	}
}

// capture serializes the full training state at an epoch boundary:
// epoch epochs are complete, the optimizer has applied its last step,
// and the shuffle RNG sits exactly where the next epoch's reshuffle
// will draw from.
func (c *ckptSaver) capture(epoch int, res *Result, bestState []byte, samples int) map[string][]byte {
	meta := trainMeta{
		Seed: c.seed, Stage: c.stage, Epochs: c.epochs, Epoch: epoch + 1,
		FaultRate: c.rate, Samples: samples,
		BestEvalAcc: res.BestEvalAcc, BestEpoch: res.BestEpoch,
		HasBest: bestState != nil,
		History: res.History, Prefix: c.prefix,
		Perm: c.loader.PermState(),
	}
	rngState, err := c.rng.MarshalState()
	if err != nil {
		panic(fmt.Sprintf("core: RNG state capture: %v", err))
	}
	sections := map[string][]byte{
		secMeta: marshalMeta(&meta),
		secNet:  c.net.Snapshot(),
		secOpt:  tensor.AppendTensors(nil, c.opt.ExportState()...),
		secRNG:  rngState,
	}
	if bestState != nil {
		sections[secBest] = bestState
	}
	if c.admm != nil {
		st := c.admm.ExportState()
		sections[secADMM] = tensor.AppendTensors(nil, append(st.Z, st.U...)...)
	}
	return sections
}

// epochEnd records the just-completed epoch's state and writes it to
// disk when the epoch lands on the save interval or is the stage's
// last. Write failures are reported through the sink and otherwise
// ignored: losing crash-safety must not kill a healthy training run.
func (c *ckptSaver) epochEnd(epoch int, res *Result, bestState []byte, samples int) {
	if c == nil {
		return
	}
	c.pending = c.capture(epoch, res, bestState, samples)
	c.saved = false
	if (epoch+1)%c.every == 0 || epoch+1 == c.epochs {
		c.flush(epoch + 1)
	}
}

// onCancel flushes the last completed epoch's state if it has not
// reached disk yet — the "SIGINT writes a final checkpoint" path. The
// in-flight epoch is deliberately not captured: mid-epoch weights are
// not a resumable boundary, and the resumed run replays the whole
// interrupted epoch bit-identically instead.
func (c *ckptSaver) onCancel(epoch int) {
	if c == nil || c.pending == nil || c.saved {
		return
	}
	c.flush(epoch)
}

// flush writes the pending snapshot; completedEpochs is only used for
// the ckpt.save event.
func (c *ckptSaver) flush(completedEpochs int) {
	path, size, err := c.run.Save(c.pending)
	if err != nil {
		obs.Logf(c.sink, "checkpoint save failed (training continues without crash safety): %v", err)
		return
	}
	c.saved = true
	if c.sink.Enabled() {
		c.sink.Emit(obs.Event{
			Kind: obs.KindCkptSave, Key: path,
			Epoch: completedEpochs, Stage: c.stage, N: size,
		})
	}
}

// restore loads the newest intact checkpoint matching this run and
// applies it to the network, optimizer, RNG, and (when configured)
// ADMM state, returning the number of completed epochs to skip plus
// the restored KeepBest snapshot and sample counter. A checkpoint for
// a different stage/seed/budget is silently ignored (normal when a
// multi-stage run resumes past it); one that matches but fails to
// apply is reported and ignored, leaving the fresh-start state intact.
// Returns 0 start epochs when there is nothing to resume.
func (c *ckptSaver) restore(res *Result) (startEpoch int, bestState []byte, samples int) {
	if c == nil {
		return 0, nil, 0
	}
	sections, path, ok := c.run.Load()
	if !ok {
		return 0, nil, 0
	}
	meta, err := unmarshalMeta(sections[secMeta]) // nil for an older format, which lacks the section
	if err != nil {
		obs.Logf(c.sink, "checkpoint %s has no usable %q section (%v); starting fresh", path, secMeta, err)
		return 0, nil, 0
	}
	if meta.Stage != c.stage {
		// A different phase of this run's sequence — expected during
		// multi-stage resumes, not worth a log line.
		return 0, nil, 0
	}
	if meta.Seed != c.seed || meta.Epochs != c.epochs || meta.FaultRate != c.rate ||
		meta.Epoch < 1 || meta.Epoch > c.epochs || len(meta.History) != meta.Epoch {
		obs.Logf(c.sink, "checkpoint %s belongs to a different run (seed/budget/rate mismatch); starting fresh", path)
		return 0, nil, 0
	}
	want := []string{secMeta, secNet, secOpt, secRNG}
	if meta.HasBest {
		want = append(want, secBest)
	}
	if c.admm != nil {
		want = append(want, secADMM)
	}
	if err := ckpt.Expect(sections, want...); err != nil {
		obs.Logf(c.sink, "checkpoint %s does not match this run (%v); starting fresh", path, err)
		return 0, nil, 0
	}
	// Decode everything before mutating anything, so a half-bad
	// checkpoint cannot leave the run in a mixed state.
	velocity, err := tensor.DecodeTensors(sections[secOpt])
	var zu []*tensor.Tensor // ADMM Z then U
	if err == nil && c.admm != nil {
		zu, err = tensor.DecodeTensors(sections[secADMM])
	}
	if err != nil {
		obs.Logf(c.sink, "checkpoint %s optimizer state undecodable (%v); starting fresh", path, err)
		return 0, nil, 0
	}
	orig := c.net.Snapshot()
	apply := func() error {
		if err := c.net.Restore(sections[secNet]); err != nil {
			return fmt.Errorf("network: %w", err)
		}
		if err := c.opt.ImportState(velocity); err != nil {
			return fmt.Errorf("optimizer: %w", err)
		}
		if c.admm != nil {
			if err := c.admm.ImportState(&prune.ADMMState{Z: zu[:len(zu)/2], U: zu[len(zu)/2:]}); err != nil {
				return fmt.Errorf("admm: %w", err)
			}
		}
		if err := c.rng.UnmarshalState(sections[secRNG]); err != nil {
			return fmt.Errorf("rng: %w", err)
		}
		if err := c.loader.SetPermState(meta.Perm); err != nil {
			return fmt.Errorf("loader: %w", err)
		}
		return nil
	}
	if err := apply(); err != nil {
		// Roll the network back to its fresh-start weights; restoring
		// our own snapshot onto the same architecture cannot fail.
		if rerr := c.net.Restore(orig); rerr != nil {
			panic(fmt.Sprintf("core: checkpoint rollback failed: %v", rerr))
		}
		obs.Logf(c.sink, "checkpoint %s unusable (%v); starting fresh", path, err)
		return 0, nil, 0
	}
	res.History = append(res.History, meta.History...)
	res.BestEvalAcc = meta.BestEvalAcc
	res.BestEpoch = meta.BestEpoch
	if meta.HasBest {
		bestState = append([]byte(nil), sections[secBest]...)
	}
	// The restored state is exactly what epochEnd captured, so a
	// cancellation before the next boundary has nothing new to flush.
	c.pending = sections
	c.saved = true
	if c.sink.Enabled() {
		c.sink.Emit(obs.Event{
			Kind: obs.KindCkptRestore, Key: path,
			Epoch: meta.Epoch, Stage: meta.Stage,
		})
	}
	return meta.Epoch, bestState, meta.Samples
}

// peekCkptMeta decodes just the meta section of a run's newest intact
// checkpoint — ProgressiveFT uses it to decide which ladder stage to
// resume at before entering the stage loop. Returns nil when there is
// nothing to resume.
func peekCkptMeta(run *ckpt.Run) *trainMeta {
	if run == nil {
		return nil
	}
	sections, _, ok := run.Load()
	if !ok {
		return nil
	}
	meta, err := unmarshalMeta(sections[secMeta])
	if err != nil {
		return nil
	}
	return meta
}
