package core

import (
	"context"

	"github.com/ftpim/ftpim/internal/data"
	"github.com/ftpim/ftpim/internal/fault"
	"github.com/ftpim/ftpim/internal/nn"
)

// FaultAwareRetrain is the device-specific baseline (Xia et al.,
// DAC'17 [5]): the defect map of one physical device — assumed known
// from a march test — is pinned onto the weights during every training
// step, so the surviving weights learn to compensate for that exact
// device. The result is excellent on that device and useless on any
// other, which is the scalability problem the paper's stochastic
// schemes remove: retraining must be repeated per manufactured unit.
//
// A map drawn for a different model is an error, returned before any
// training. Cancellation behaves exactly as in Train: the partial
// Result and ctx's error are returned.
func FaultAwareRetrain(ctx context.Context, net *nn.Network, ds *data.Dataset, cfg Config, dm *fault.DeviceMap) (*Result, error) {
	if err := dm.Check(WeightTensors(net)); err != nil {
		return nil, err
	}
	cfg.Pinned = dm
	cfg.FaultRate = 0
	return Train(ctx, net, ds, cfg)
}
