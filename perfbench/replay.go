package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"time"

	"galactos"
	"galactos/internal/catalog"
	"galactos/internal/core"
	"galactos/internal/journal"
)

// replayReps is how often each replayed layer call is timed; the metric is
// the median.
const replayReps = 15

// medianMS times f replayReps times and returns the median in milliseconds.
func medianMS(f func() error) (float64, error) {
	var xs []float64
	for i := 0; i < replayReps; i++ {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		xs = append(xs, ms(time.Since(t0)))
	}
	return median(xs), nil
}

// replayLayers times, one at a time, the layer calls a workload's request
// and result pass through but the benchmark cannot time from outside a job:
// encoding and decoding the wire request, hashing the catalog, encoding the
// result, and journaling a submit record (which pays the fsync). req is
// the request as it goes on the wire, src its catalog, res a job's result.
func replayLayers(o *outcome, dir string, req galactos.Request, src catalog.Source, res *core.Result) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	v, err := medianMS(func() error { _, err := json.Marshal(req); return err })
	if err != nil {
		return err
	}
	o.layers.set("client.encode_ms", "ms", v)
	if v, err = medianMS(func() error { var r galactos.Request; return json.Unmarshal(body, &r) }); err != nil {
		return err
	}
	o.layers.set("service.decode_ms", "ms", v)

	var catHash string
	if v, err = medianMS(func() error { catHash, err = catalog.Hash(src); return err }); err != nil {
		return err
	}
	o.layers.set("catalog.hash_ms", "ms", v)

	var buf bytes.Buffer
	if v, err = medianMS(func() error { buf.Reset(); return core.WriteResult(&buf, res) }); err != nil {
		return err
	}
	o.layers.set("core.encode_ms", "ms", v)
	o.layers.set("core.result_bytes", "B", float64(buf.Len()))
	if _, ok := o.layers.m["core.save_ms"]; !ok {
		path := filepath.Join(dir, "replay.result")
		if v, err = medianMS(func() error { return core.SaveResult(path, res) }); err != nil {
			return err
		}
		o.layers.set("core.save_ms", "ms", v)
	}

	fp, err := req.Config.Fingerprint()
	if err != nil {
		return err
	}
	jnl, _, err := journal.Open(journal.Options{Dir: filepath.Join(dir, "replay-journal")})
	if err != nil {
		return err
	}
	n := 0
	v, err = medianMS(func() error {
		n++
		return jnl.Append(journal.Record{Type: journal.RecordSubmit, ID: fmt.Sprintf("job-%06d", n),
			Time: time.Now().UTC(), Key: catHash + "+" + fp, CatHash: catHash, Fingerprint: fp,
			Label: req.Label, Request: body})
	})
	if cerr := jnl.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	o.layers.set("journal.append_ms", "ms", v)
	return nil
}
