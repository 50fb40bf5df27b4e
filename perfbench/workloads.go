package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"

	"batchmaker/internal/cellgraph"
	"batchmaker/internal/dataset"
	"batchmaker/internal/journal"
	"batchmaker/internal/obsv"
	"batchmaker/internal/rnn"
	"batchmaker/internal/server"
	"batchmaker/internal/tensor"
)

// modelSeed fixes every workload's weights; --seed varies only the inputs
// and arrivals.
const modelSeed = 2018

// workers matches cmd/batchmaker's default -workers.
const workers = 2

// input is one generated request, before unfolding. Exactly one of rows,
// tree and ids is set, by workload.
type input struct {
	rows   *tensor.Tensor  // lstm-wmt: [len, 256] step inputs
	tree   *cellgraph.Tree // treelstm-small: parse tree
	ids    []int           // seq2seq-durable: source word ids
	decode int             // seq2seq-durable: decode length
}

// cellInfo is one registered cell type, for the per-layer ledger.
type cellInfo struct {
	cell     rnn.Cell
	name     string // metric suffix
	maxBatch int
	priority int
	prec     rnn.Precision
	// idVocab, when positive, marks "ids" inputs drawn from [2, idVocab).
	idVocab int
}

// system is one built model plus its live server.
type system struct {
	srv   *server.Server
	cells []cellInfo
	jnl   *journal.Journal
	jm    *obsv.JournalMetrics
	dir   string
	// unfold turns a generated input into the request graph and, on the
	// journaled workload, the admit payload — what cmd/batchmaker's
	// app.handle does before it submits.
	unfold func(in *input) (*cellgraph.Graph, []byte, error)
	// results names the request's outputs in a fixed order.
	results func(in *input) []string
}

func (s *system) close() {
	s.srv.Stop()
	if s.jnl != nil {
		s.jnl.Close()
	}
	if s.dir != "" {
		os.RemoveAll(s.dir)
	}
}

type workload struct {
	// setup builds the model and server; dir is a fresh directory the
	// journaled workload may use.
	setup func(dir string) (*system, error)
	// gen draws n inputs from seed.
	gen func(seed uint64, n int) []input
}

var workloads = map[string]workload{
	"lstm-wmt":        {setup: setupLSTM, gen: genLSTM},
	"treelstm-small":  {setup: setupTree, gen: genTree},
	"seq2seq-durable": {setup: setupSeq2Seq, gen: genSeq2Seq},
}

const lstmDim = 256

func setupLSTM(string) (*system, error) {
	cell := rnn.NewLSTMCell("lstm", lstmDim, lstmDim, tensor.NewRNG(modelSeed))
	srv, err := server.New(server.Config{
		Workers: workers,
		Cells:   []server.CellSpec{{Cell: cell, MaxBatch: 64}},
	})
	if err != nil {
		return nil, err
	}
	names := []string{"h"}
	return &system{
		srv:   srv,
		cells: []cellInfo{{cell: cell, name: "lstm", maxBatch: 64}},
		unfold: func(in *input) (*cellgraph.Graph, []byte, error) {
			g, err := cellgraph.UnfoldChain(cell, in.rows)
			return g, nil, err
		},
		results: func(*input) []string { return names },
	}, nil
}

func genLSTM(seed uint64, n int) []input {
	lengths := dataset.NewWMTLengths(seed)
	rng := tensor.NewRNG(seed ^ 0x5eed)
	ins := make([]input, n)
	for i := range ins {
		l := lengths.Sample()
		ins[i] = input{rows: tensor.RandNormal(rng, 1, l, lstmDim)}
	}
	return ins
}

const (
	treeVocab  = 2000
	treeEmbed  = 64
	treeHidden = 64
)

func setupTree(string) (*system, error) {
	rng := tensor.NewRNG(modelSeed)
	leaf := rnn.NewTreeLeafCell("leaf", treeVocab, treeEmbed, treeHidden, rng)
	internal := rnn.NewTreeInternalCell("internal", treeHidden, rng)
	srv, err := server.New(server.Config{
		Workers: workers,
		Cells: []server.CellSpec{
			{Cell: leaf, MaxBatch: 64, Priority: 0},
			{Cell: internal, MaxBatch: 64, Priority: 1},
		},
	})
	if err != nil {
		return nil, err
	}
	names := []string{"h"}
	return &system{
		srv: srv,
		cells: []cellInfo{
			{cell: leaf, name: "leaf", maxBatch: 64, idVocab: treeVocab},
			{cell: internal, name: "internal", maxBatch: 64, priority: 1},
		},
		unfold: func(in *input) (*cellgraph.Graph, []byte, error) {
			g, err := cellgraph.UnfoldTree(leaf, internal, in.tree)
			return g, nil, err
		},
		results: func(*input) []string { return names },
	}, nil
}

func genTree(seed uint64, n int) []input {
	trees := dataset.NewTreeSampler(seed, treeVocab)
	ins := make([]input, n)
	for i := range ins {
		ins[i] = input{tree: trees.Sample()}
	}
	return ins
}

// The seq2seq-durable model is the one cmd/batchmaker serves.
const (
	s2sVocab  = 2000
	s2sEmbed  = 64
	s2sHidden = 256
)

// apiRequest mirrors cmd/batchmaker's request body, the journal payload
// its app.handle writes per request.
type apiRequest struct {
	IDs    []int `json:"ids"`
	Decode int   `json:"decode"`
}

// wordNames are the decoder's result names, precomputed so collecting
// results allocates nothing.
var wordNames = func() []string {
	names := make([]string, dataset.WMTMaxLen)
	for i := range names {
		names[i] = "word" + strconv.Itoa(i)
	}
	return names
}()

func setupSeq2Seq(dir string) (*system, error) {
	rng := tensor.NewRNG(modelSeed)
	enc := rnn.NewEncoderCell("encoder", s2sVocab, s2sEmbed, s2sHidden, rng)
	dec := rnn.NewDecoderCell("decoder", s2sVocab, s2sEmbed, s2sHidden, rng)
	rec, err := journal.Recover(dir)
	if err != nil {
		return nil, err
	}
	reg := obsv.NewRegistry()
	jm := obsv.NewJournalMetrics(reg)
	jnl, err := journal.Open(journal.Options{Dir: dir, Sync: journal.SyncBatch, Metrics: jm})
	if err != nil {
		return nil, err
	}
	srv, err := server.New(server.Config{
		Workers: workers,
		Cells: []server.CellSpec{
			{Cell: enc, MaxBatch: 64, Priority: 0, Precision: rnn.PrecisionInt8},
			{Cell: dec, MaxBatch: 32, Priority: 1, Precision: rnn.PrecisionInt8},
		},
		Obs:            server.ObsConfig{Registry: reg},
		Journal:        jnl,
		FirstRequestID: rec.MaxID,
	})
	if err != nil {
		jnl.Close()
		return nil, err
	}
	return &system{
		srv: srv,
		cells: []cellInfo{
			{cell: enc, name: "encoder", maxBatch: 64, prec: rnn.PrecisionInt8, idVocab: s2sVocab},
			{cell: dec, name: "decoder", maxBatch: 32, priority: 1, prec: rnn.PrecisionInt8, idVocab: s2sVocab},
		},
		jnl: jnl,
		jm:  jm,
		dir: dir,
		unfold: func(in *input) (*cellgraph.Graph, []byte, error) {
			g, err := cellgraph.UnfoldSeq2Seq(enc, dec, in.ids, in.decode)
			if err != nil {
				return nil, nil, err
			}
			payload, err := json.Marshal(apiRequest{IDs: in.ids, Decode: in.decode})
			return g, payload, err
		},
		results: func(in *input) []string { return wordNames[:in.decode] },
	}, nil
}

func genSeq2Seq(seed uint64, n int) []input {
	pairs := dataset.NewPairSampler(seed)
	// Ids 0 and 1 are <go> and <eos>.
	words := dataset.NewWordSampler(seed^0x3a7d, 2, s2sVocab)
	ins := make([]input, n)
	for i := range ins {
		src, dst := pairs.Sample()
		ins[i] = input{ids: words.Sentence(src), decode: dst}
	}
	return ins
}

// setupTimed builds the workload's system once, after a forced collection
// so the build pays for no earlier garbage, and returns it with the
// seconds from model construction until the server can admit a request.
func setupTimed(wl workload, scratch string) (*system, float64, error) {
	dir, err := os.MkdirTemp(scratch, "journal-")
	if err != nil {
		return nil, 0, fmt.Errorf("journal directory: %w", err)
	}
	runtime.GC()
	start := nowNs()
	sys, err := wl.setup(dir)
	secs := float64(nowNs()-start) / 1e9
	if err != nil {
		os.RemoveAll(dir)
		return nil, 0, err
	}
	if sys.dir == "" {
		os.RemoveAll(dir)
	}
	return sys, secs, nil
}

// flatten copies a request's results, in the system's fixed name order,
// into dst and reports whether every named output had the expected size.
func flatten(dst []float32, names []string, res map[string]*tensor.Tensor) bool {
	off := 0
	for _, n := range names {
		t := res[n]
		if t == nil || off+t.Size() > len(dst) {
			return false
		}
		off += copy(dst[off:], t.Data())
	}
	return off == len(dst)
}

// resultLen is the flattened size of an input's results.
func resultLen(sys *system, in *input) int {
	switch {
	case in.rows != nil:
		return lstmDim
	case in.tree != nil:
		return treeHidden
	default:
		return len(sys.results(in))
	}
}

// sameBits reports whether two flattened results are bit-identical.
func sameBits(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// scratchDir creates the run's scratch directory under root.
func scratchDir(root string) (string, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(root, "perfbench-")
}
