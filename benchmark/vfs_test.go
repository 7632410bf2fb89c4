package main

import (
	"testing"

	"repro/internal/engine/storage"
	"repro/internal/engine/wal"
)

func TestCountingVFS(t *testing.T) {
	mem := storage.NewMemVFS()
	tr := newTracer()
	v := newCountingVFS(mem, tr)
	if err := v.MkdirAll("d"); err != nil {
		t.Fatal(err)
	}
	logFile, err := v.Create("d/" + wal.FileName)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := v.Create("d/checkpoint.snap.tmp")
	if err != nil {
		t.Fatal(err)
	}
	commit := tr.begin("core.commit", rootSpan, 7)
	for _, chunk := range []string{"abc", "defgh"} {
		if _, err := logFile.Write([]byte(chunk)); err != nil {
			t.Fatal(err)
		}
	}
	if err := logFile.Sync(); err != nil {
		t.Fatal(err)
	}
	tr.end(commit)
	if _, err := snap.Write([]byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	if err := snap.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := logFile.Close(); err != nil {
		t.Fatal(err)
	}
	if err := snap.Close(); err != nil {
		t.Fatal(err)
	}
	if err := v.Rename("d/checkpoint.snap.tmp", "d/checkpoint.snap"); err != nil {
		t.Fatal(err)
	}

	log, rest := v.counts()
	if log.Writes != 2 || log.WriteBytes != 8 || log.Syncs != 1 {
		t.Errorf("log counts = %+v, want 2 writes, 8 bytes, 1 sync", log)
	}
	if rest.Writes != 1 || rest.WriteBytes != 10 || rest.Syncs != 1 {
		t.Errorf("checkpoint counts = %+v, want 1 write, 10 bytes, 1 sync", rest)
	}
	if size, err := mem.Stat("d/" + wal.FileName); err != nil || size != 8 {
		t.Errorf("wrapped file holds %d bytes (%v), want 8: the wrapper must pass writes through", size, err)
	}
	if _, err := v.Open("d/missing"); !storage.IsNotExist(err) {
		t.Errorf("Open of a missing file = %v, want the inner not-exist error", err)
	}

	// The log's writes and sync ran inside the commit span, the
	// checkpoint's after it: containment must adopt the first three and
	// leave the others at the root.
	tr.finish()
	adopted, roots := 0, 0
	for _, s := range tr.spans {
		switch {
		case s.Name == "core.commit":
		case s.Parent == commit && s.OpID == 7:
			adopted++
		case s.Parent == rootSpan:
			roots++
		default:
			t.Errorf("span %+v: unexpected parent", s)
		}
	}
	if adopted != 3 || roots != 2 {
		t.Errorf("adopted %d spans and left %d at the root, want 3 and 2", adopted, roots)
	}
	self := tr.selfTimes()
	total := self["core.commit"] + self["wal.write"] + self["wal.sync"]
	if want := tr.spans[commit].End - tr.spans[commit].Start; total.Nanoseconds() != want {
		t.Errorf("self times inside the commit sum to %d ns, want the commit's %d ns", total.Nanoseconds(), want)
	}
}
