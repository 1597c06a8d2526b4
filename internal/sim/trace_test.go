package sim

import (
	"strings"
	"testing"
)

func TestTracerWriteCSV(t *testing.T) {
	tr := NewTracer()
	tr.Add(Span{Resource: "gpu0", Label: "kernel", Start: 10, End: 20, Bytes: 0})
	tr.Add(Span{Resource: "nic0/tx", Label: "xfer", Start: 5, End: 15, Bytes: 1024})
	var sb strings.Builder
	if err := tr.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.HasPrefix(out, "resource,label,start_ns,end_ns,bytes\n") {
		t.Fatalf("missing header: %q", out)
	}
	if !strings.Contains(out, "gpu0,kernel,10,20,0") || !strings.Contains(out, "nic0/tx,xfer,5,15,1024") {
		t.Fatalf("rows missing: %q", out)
	}
}

func TestEngineTracerIntegration(t *testing.T) {
	e := NewEngine()
	tr := NewTracer()
	e.SetTracer(tr)
	p := NewPipe(e, "link", 1e9, 0)
	p.TransferAfter(FiredSignal(), 100)
	e.Run()
	if len(tr.Spans) != 1 {
		t.Fatalf("pipe did not trace: %d spans", len(tr.Spans))
	}
	if tr.Spans[0].Bytes != 100 || tr.Spans[0].Resource != "link" {
		t.Fatalf("bad span: %+v", tr.Spans[0])
	}
	e.SetTracer(nil)
	p.TransferAfter(FiredSignal(), 100)
	e.Run()
	if len(tr.Spans) != 1 {
		t.Fatal("disabled tracer still recorded")
	}
}

func TestPipeReserve(t *testing.T) {
	e := NewEngine()
	p := NewPipe(e, "link", 1e9, 5)
	s1, e1 := p.Reserve(0, 100)
	if s1 != 0 || e1 != 105 {
		t.Fatalf("first reserve = [%v,%v], want [0,105]", s1, e1)
	}
	// Second reservation queues behind the first even when requested
	// earlier than freeAt.
	s2, e2 := p.Reserve(50, 100)
	if s2 != 105 || e2 != 210 {
		t.Fatalf("second reserve = [%v,%v], want [105,210]", s2, e2)
	}
	// A reservation in the past clamps to now.
	e.Schedule(1000, func() {
		s3, _ := p.Reserve(0, 10)
		if s3 != 1000 {
			t.Errorf("past reserve start = %v, want 1000", s3)
		}
	})
	e.Run()
}

func TestTracerSummary(t *testing.T) {
	tr := NewTracer()
	tr.Add(Span{Resource: "gpu0", Label: "kernel", Start: 0, End: 100})
	tr.Add(Span{Resource: "gpu0", Label: "kernel", Start: 150, End: 250})
	tr.Add(Span{Resource: "nic0", Label: "xfer", Start: 0, End: 50, Bytes: 10})
	busy := tr.BusyByResource()
	if busy["gpu0"] != 200 || busy["nic0"] != 50 {
		t.Fatalf("busy = %v", busy)
	}
}
