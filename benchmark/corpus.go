package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	rcorpus "repro/internal/corpus"
	"repro/internal/datagen"
	"repro/internal/xmltree"
)

// scale sizes the workloads. Every measured run uses fullScale; the
// smoke test uses smokeScale so that it fits in the unit-test budget.
type scale struct {
	Name string
	// Plays and Proceedings size the corpora of the paper workloads.
	// 37 plays is the paper's Shakespeare DSx1; the SIGMOD corpus is a
	// third of DSx1 so that one pass over the twelve queries takes about
	// a second and a run holds enough passes for a steady median.
	Plays, Proceedings int
	// IngestPlays and IngestProceedings size what one ingest round loads.
	IngestPlays, IngestProceedings int
	// SessionDocs is the number of SIGMOD documents oltp_sessions starts
	// with; SessionSpare more are generated as material for adds and
	// splices.
	SessionDocs, SessionSpare int
	// SetupRepeats is how many times a run sets up; setup_s is the median.
	SetupRepeats int
	// MinOps is the least number of measured operations of a run,
	// whatever --seconds says.
	MinOps int
}

var (
	fullScale = scale{
		Name: "full", Plays: 37, Proceedings: 400,
		IngestPlays: 10, IngestProceedings: 250,
		SessionDocs: 1000, SessionSpare: 200,
		SetupRepeats: 3, MinOps: 3,
	}
	smokeScale = scale{
		Name: "smoke", Plays: 2, Proceedings: 50,
		IngestPlays: 2, IngestProceedings: 50,
		SessionDocs: 50, SessionSpare: 20,
		SetupRepeats: 1, MinOps: 2,
	}
)

// corpus is a generated document set with its serialized texts, which
// are all the engine ever sees.
type corpus struct {
	Name  string
	DTD   string
	Docs  []*xmltree.Document
	Texts []string
	Bytes int64
}

// generateCorpus builds n documents of the named data set. The seed is
// added to the generator's default seed, so seed 0 is the corpus the
// engine's other harnesses use.
func generateCorpus(name string, seed int64, n int) (corpus, error) {
	c := corpus{Name: name}
	switch name {
	case "shakespeare":
		cfg := datagen.DefaultPlayConfig()
		cfg.Seed += seed
		cfg.Plays = n
		c.DTD, c.Docs = rcorpus.ShakespeareDTD, datagen.GeneratePlays(cfg)
	case "sigmod":
		cfg := datagen.DefaultSigmodConfig()
		cfg.Seed += seed
		cfg.Documents = n
		c.DTD, c.Docs = rcorpus.SigmodDTD, datagen.GenerateSigmod(cfg)
	default:
		return c, fmt.Errorf("unknown corpus %q", name)
	}
	c.Texts = make([]string, len(c.Docs))
	for i, d := range c.Docs {
		c.Texts[i] = xmltree.Serialize(d.Root)
		c.Bytes += int64(len(c.Texts[i]))
	}
	return c, nil
}

// generatePair builds the two corpora a store pair holds: Shakespeare
// first, SIGMOD second.
func generatePair(seed int64, plays, proceedings int) (pair [2]corpus, err error) {
	if pair[0], err = generateCorpus("shakespeare", seed, plays); err != nil {
		return pair, err
	}
	pair[1], err = generateCorpus("sigmod", seed, proceedings)
	return pair, err
}

// liveHeapMB collects garbage and returns what is left on the heap.
func liveHeapMB() float64 {
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	return float64(mem.HeapAlloc) / 1e6
}

// first returns the corpus cut to its first n documents.
func (c corpus) first(n int) corpus {
	if n > len(c.Docs) {
		n = len(c.Docs)
	}
	out := corpus{Name: c.Name, DTD: c.DTD, Docs: c.Docs[:n], Texts: c.Texts[:n]}
	for _, t := range out.Texts {
		out.Bytes += int64(len(t))
	}
	return out
}

// built is a loaded store and what building it cost, step by step.
type built struct {
	Store    *core.Store
	XMLBytes int64
	NewStore time.Duration
	// Parse and Shred split Load in a traced run, which parses and loads
	// in two calls; an untraced run makes the one call a user would.
	Parse, Shred time.Duration
	Load         time.Duration
	Index        time.Duration
	Stats        time.Duration
}

// loadTime is the part of a build the paper calls loading, plus the
// index builds and runstats it always follows with.
func (b *built) loadTime() time.Duration { return b.Load + b.Index + b.Stats }

func (b *built) loadMBs() float64 {
	return ratio(float64(b.XMLBytes)/1e6, b.loadTime().Seconds())
}

// buildStore makes a store of c under cfg: NewStore, load, default
// indexes, runstats. With register set the documents go in through
// AddXML, which records them in the document registry so that they can
// be removed later.
func buildStore(tr *tracer, parent int, c corpus, cfg core.Config, register bool) (*built, error) {
	b := &built{XMLBytes: c.Bytes}
	var err error
	b.NewStore, err = tr.timed("core.newstore", parent, 0, func() error {
		var err error
		b.Store, err = core.NewStore(c.DTD, cfg)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("new %s store: %w", c.Name, err)
	}
	st := b.Store
	if tr == nil {
		b.Load, err = tr.timed("core.load", parent, 0, func() error {
			if register {
				_, err := st.AddXML(c.Texts)
				return err
			}
			return st.LoadXML(c.Texts)
		})
	} else {
		docs := make([]*xmltree.Document, len(c.Texts))
		b.Parse, err = tr.timed("xmltree.parse", parent, 0, func() error {
			for i, text := range c.Texts {
				doc, err := xmltree.Parse(text)
				if err != nil {
					return err
				}
				docs[i] = doc
			}
			return nil
		})
		if err == nil {
			b.Shred, err = tr.timed("shred.load", parent, 0, func() error {
				if register {
					_, err := st.AddDocuments(docs)
					return err
				}
				return st.Load(docs)
			})
		}
		b.Load = b.Parse + b.Shred
	}
	if err != nil {
		return nil, fmt.Errorf("loading %s: %w", c.Name, err)
	}
	if b.Index, err = tr.timed("index.build", parent, 0, st.CreateDefaultIndexes); err != nil {
		return nil, fmt.Errorf("indexing %s: %w", c.Name, err)
	}
	if b.Stats, err = tr.timed("catalog.runstats", parent, 0, st.RunStats); err != nil {
		return nil, fmt.Errorf("runstats on %s: %w", c.Name, err)
	}
	return b, nil
}

// storedBytes is the paper's size column: heap pages plus indexes.
func storedBytes(st *core.Store) int64 {
	s := st.Stats()
	return s.DataBytes + s.IndexBytes
}
