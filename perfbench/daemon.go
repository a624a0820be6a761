package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"time"

	"repro/internal/serve"
)

// crashRecovery is an inline copy of the built-in crash-recovery
// scenario, sampled every 0.5 simulated milliseconds so the stream
// carries real telemetry volume.
const crashRecovery = `{"name":"crash-recovery",` +
	`"description":"host crash after warmup; the recovery transient of paper §7.8",` +
	`"sample_every_ms":0.5,` +
	`"phases":[{"name":"warm","ws_multiple":2},` +
	`{"name":"recovery","ws_multiple":2,"events":[{"kind":"crash","host":0}]}]}`

// Each daemon run simulates 16 hosts with persistent flash at 1:16384, a
// quarter of the daemon's default model size: one round trip then takes
// about 0.2 s on two cores, so a 20-second run gathers enough round trips
// for a tail percentile with ten samples beyond it.
const (
	daemonHosts = 16
	daemonScale = 16384
)

// endDone is the stream's last line for a run that finished.
var endDone = []byte(`{"type":"end","state":"done"}`)

// daemonSetup starts flashsimd in-process on a loopback listener and
// waits for its first healthy /healthz.
func daemonSetup(seed uint64) (runner, error) {
	shards := runtime.NumCPU()
	var bodies [inputsPerRun][]byte
	for j := range bodies {
		bodies[j] = fmt.Appendf(nil, `{"config":{"hosts":%d,"scale":%d,"persistent":true,"shards":%d,"seed":%d},"scenario":%s}`,
			daemonHosts, daemonScale, shards, inputSeed(seed, j), crashRecovery)
	}
	srv := serve.New(serve.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	served := make(chan struct{})
	go func() {
		defer close(served)
		hs.Serve(ln) //nolint:errcheck // returns ErrServerClosed after Shutdown
	}()
	d := &daemonRunner{
		base: "http://" + ln.Addr().String(),
		// One client on one connection: a closed loop.
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}},
		bodies:  bodies,
		nshards: shards,
		stop: func() {
			hs.Shutdown(context.Background()) //nolint:errcheck // idle connections only
			srv.Close()
			<-served
		},
	}
	if _, err := d.call(http.MethodGet, "/healthz", nil, http.StatusOK); err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

// daemonRunner drives one flashsimd over its v1 HTTP API.
type daemonRunner struct {
	base    string
	client  *http.Client
	bodies  [inputsPerRun][]byte
	nshards int
	stop    func()
}

func (d *daemonRunner) shards() int { return d.nshards }

func (d *daemonRunner) close() {
	d.client.CloseIdleConnections()
	d.stop()
}

// call makes one request and returns the body, failing on any status
// other than want.
func (d *daemonRunner) call(method, path string, body []byte, want int) ([]byte, error) {
	req, err := http.NewRequest(method, d.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("%s %s: status %d, want %d: %s", method, path, resp.StatusCode, want, bytes.TrimSpace(b))
	}
	return b, nil
}

// op is one round trip on input j, as docs/SERVICE.md prescribes: POST
// the run, read its stream to the end, GET the report, DELETE the run.
func (d *daemonRunner) op(j int, _ bool) (opResult, error) {
	ms := func(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }
	t0 := time.Now()
	b, err := d.call(http.MethodPost, "/v1/runs", d.bodies[j], http.StatusCreated)
	if err != nil {
		return opResult{}, err
	}
	var info struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(b, &info); err != nil || info.ID == "" {
		return opResult{}, fmt.Errorf("POST /v1/runs: bad run info %q", b)
	}
	layer := map[string]float64{"serve.submit_ms": ms(t0)}
	run := "/v1/runs/" + info.ID

	h := sha256.New()
	tStream := time.Now()
	samples, err := d.stream(run, t0, h, layer)
	if err != nil {
		return opResult{}, err
	}
	layer["serve.stream_ms"] = ms(tStream)

	tReport := time.Now()
	report, err := d.call(http.MethodGet, run+"/report", nil, http.StatusOK)
	if err != nil {
		return opResult{}, err
	}
	layer["serve.report_ms"] = ms(tReport)
	blocks, err := reportLayer(report, samples, h, layer)
	if err != nil {
		return opResult{}, err
	}

	tDelete := time.Now()
	if _, err := d.call(http.MethodDelete, run, nil, http.StatusNoContent); err != nil {
		return opResult{}, err
	}
	layer["serve.delete_ms"] = ms(tDelete)
	return opResult{digest: hex.EncodeToString(h.Sum(nil)), blocks: blocks, layer: layer}, nil
}

// stream reads a run's NDJSON stream to its end, hashing the sample
// lines and timing the hello and first sample frames from t0. It returns
// the number of sample frames.
func (d *daemonRunner) stream(run string, t0 time.Time, h io.Writer, layer map[string]float64) (int, error) {
	resp, err := d.client.Get(d.base + run + "/stream")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("GET %s/stream: status %d", run, resp.StatusCode)
	}
	br := bufio.NewReaderSize(resp.Body, 1<<20)
	var frames, samples, size int
	var last []byte
	for {
		line, err := br.ReadSlice('\n')
		if errors.Is(err, io.EOF) && len(line) == 0 {
			break
		}
		if err != nil {
			return 0, fmt.Errorf("GET %s/stream: %w", run, err)
		}
		frames++
		size += len(line)
		switch {
		case bytes.HasPrefix(line, []byte(`{"type":"sample"`)):
			if samples == 0 {
				layer["first_sample_ms"] = float64(time.Since(t0)) / 1e6
			}
			samples++
			h.Write(line)
		case bytes.HasPrefix(line, []byte(`{"type":"hello"`)):
			layer["serve.hello_ms"] = float64(time.Since(t0)) / 1e6
		}
		last = append(last[:0], bytes.TrimSpace(line)...)
	}
	if !bytes.Equal(last, endDone) {
		return 0, fmt.Errorf("GET %s/stream: last frame %s, want %s", run, last, endDone)
	}
	layer["serve.frames"] = float64(frames)
	layer["serve.stream_kb"] = float64(size) / 1e3
	return samples, nil
}

// reportLayer checks a finished run's report against its stream, hashes
// it without its wall-clock fields and the shard count (simulated
// results are identical at every shard count), and fills the per-layer
// counts. It returns the simulated application blocks.
func reportLayer(report []byte, samples int, h io.Writer, layer map[string]float64) (uint64, error) {
	var rep struct {
		RAMHitRate      float64           `json:"ram_hit_rate"`
		FlashHitRate    float64           `json:"flash_hit_rate"`
		Counters        map[string]uint64 `json:"counters"`
		FilerPartitions []struct {
			FastReads   uint64 `json:"fast_reads"`
			SlowReads   uint64 `json:"slow_reads"`
			ObjectReads uint64 `json:"object_reads"`
			Writes      uint64 `json:"writes"`
		} `json:"filer_partitions"`
		Scenario *struct {
			TelemetrySamples int `json:"telemetry_samples"`
		} `json:"scenario"`
	}
	if err := json.Unmarshal(report, &rep); err != nil {
		return 0, fmt.Errorf("report: %w", err)
	}
	if rep.Scenario == nil || rep.Scenario.TelemetrySamples != samples {
		return 0, fmt.Errorf("report: telemetry samples do not match the %d streamed", samples)
	}
	var doc map[string]any
	dec := json.NewDecoder(bytes.NewReader(report))
	dec.UseNumber()
	if err := dec.Decode(&doc); err != nil {
		return 0, fmt.Errorf("report: %w", err)
	}
	delete(doc, "wall_clock")
	delete(doc, "wall_clock_seconds")
	delete(doc, "peak_heap_bytes")
	if cfg, ok := doc["config"].(map[string]any); ok {
		delete(cfg, "shards")
	}
	canon, err := json.Marshal(doc)
	if err != nil {
		return 0, fmt.Errorf("report: %w", err)
	}
	h.Write(canon)

	var fast, slow, object, writes uint64
	for _, p := range rep.FilerPartitions {
		fast += p.FastReads
		slow += p.SlowReads
		object += p.ObjectReads
		writes += p.Writes
	}
	c := rep.Counters
	for k, name := range map[string]string{
		"events":           "sim.events",
		"epochs":           "core.epochs",
		"barrier_messages": "core.barrier_messages",
		"filer_fetches":    "core.filer_fetches",
		"filer_writebacks": "core.writebacks",
	} {
		layer[name] = float64(c[k])
	}
	layer["filer.reads"] = float64(fast + slow + object)
	layer["filer.writes"] = float64(writes)
	layer["filer.slow_read_ratio"] = ratio(slow, fast+slow)
	layer["cache.ram_hit_ratio"] = rep.RAMHitRate
	layer["cache.flash_hit_ratio"] = rep.FlashHitRate
	return c["blocks_issued"], nil
}
