package comm

import (
	"unsafe"

	"gat/internal/netsim"
	"gat/internal/sim"
)

// MessagingConfig parameterizes the GPU Messaging API, the older of the
// two Charm++ GPU-aware mechanisms (§II-B): before the data can move, a
// small metadata message travels to the receiver and invokes a "post
// entry method" that tells the runtime where the destination buffer is.
type MessagingConfig struct {
	// MetadataBytes is the size of the metadata message.
	MetadataBytes int64
	// PostCost is the host time consumed by the post entry method.
	PostCost sim.Time
}

// DefaultMessagingConfig matches the Charm++ implementation's small
// metadata envelope and post-entry handling cost.
func DefaultMessagingConfig() MessagingConfig {
	return MessagingConfig{MetadataBytes: 512, PostCost: 2 * sim.Microsecond}
}

// MessagingSend transfers a device buffer using the GPU Messaging API:
// metadata message, post entry method at the receiver, then the GPU data
// transfer. done, if non-nil, runs (as its own event, scheduled by the
// arrival's) when the data has arrived at the receiver. The extra
// metadata round makes this measurably slower than the Channel API for
// latency-sensitive messages — the gap that motivated the Channel API's
// development.
func MessagingSend(net *netsim.Network, cfg MessagingConfig, src, dst Endpoint, bytes int64, ready *sim.Signal, done *Completion) {
	eng := net.Engine()
	meta := net.Transfer(src.Node, dst.Node, cfg.MetadataBytes, ready)
	posted := eng.AfterSignal(meta, cfg.PostCost)
	arrived := net.TransferGPUDirect(src.Node, dst.Node, bytes, posted)
	if done != nil {
		arrived.OnFireArg(eng, messagingArrived, unsafe.Pointer(done))
	}
}

// messagingArrived schedules a Messaging-API send's completion.
func messagingArrived(eng *sim.Engine, arg unsafe.Pointer) {
	d := (*Completion)(arg)
	eng.InjectAt(eng.Now(), d.Fn, d.Arg)
}
