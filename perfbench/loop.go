package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// client is one protocol connection.
type client struct {
	conn net.Conn
	r    *bufio.Reader
	buf  []byte
}

// reply is the part of the server's JSON response the oracle reads.
type reply struct {
	OK     bool   `json:"ok"`
	Output string `json:"output"`
	Rows   int64  `json:"rows"`
	Error  string `json:"error"`
	Code   string `json:"code"`
}

func dial(addr string) (*client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &client{conn: conn, r: bufio.NewReaderSize(conn, 64<<10)}
	if _, err := c.readLine(); err != nil { // the greeting
		conn.Close()
		return nil, fmt.Errorf("reading greeting: %w", err)
	}
	return c, nil
}

func (c *client) close() { c.conn.Close() }

// readLine returns the next response line; the bytes are valid until the
// next call.
func (c *client) readLine() ([]byte, error) {
	c.buf = c.buf[:0]
	for {
		part, err := c.r.ReadSlice('\n')
		if err == nil {
			if len(c.buf) == 0 {
				return part, nil
			}
			c.buf = append(c.buf, part...)
			return c.buf, nil
		}
		if !errors.Is(err, bufio.ErrBufferFull) {
			return nil, err
		}
		c.buf = append(c.buf, part...)
	}
}

// requestTimeout turns a server that stops answering into a failed run
// well before the benchmark's own time limit.
const requestTimeout = 60 * time.Second

// roundTrip writes one request line (newline included) and reads its
// response line.
func (c *client) roundTrip(line []byte) ([]byte, error) {
	if err := c.conn.SetDeadline(time.Now().Add(requestTimeout)); err != nil {
		return nil, err
	}
	if _, err := c.conn.Write(line); err != nil {
		return nil, err
	}
	return c.readLine()
}

func (c *client) expectOK(line string) (reply, error) {
	raw, err := c.roundTrip([]byte(line + "\n"))
	if err != nil {
		return reply{}, fmt.Errorf("%s: %w", line, err)
	}
	var rep reply
	if err := json.Unmarshal(raw, &rep); err != nil {
		return reply{}, fmt.Errorf("%s: %w", line, err)
	}
	if !rep.OK {
		return rep, fmt.Errorf("%s: %s (%s)", line, rep.Error, rep.Code)
	}
	return rep, nil
}

// cursor hands out positions in the request stream, across connections.
type cursor struct{ next atomic.Int64 }

func (c *cursor) take(n int) int { return int((c.next.Add(1) - 1) % int64(n)) }

func (c *cursor) peek(n int) int { return int(c.next.Load() % int64(n)) }

// loopStats is what a closed loop observed.
type loopStats struct {
	attempted, ok, errors, wrong int64
	failed                       int64
	lat                          []time.Duration
	done                         []time.Duration // completion times, from the start
	elapsed                      time.Duration
}

// check compares a response with the reference answer of its text.
func check(raw []byte, ref answer) (ok, wrong bool) {
	var rep reply
	if err := json.Unmarshal(raw, &rep); err != nil || !rep.OK {
		return false, false
	}
	got, err := parseAnswer(rep.Output)
	if err != nil || got != ref || rep.Rows != ref.rows {
		return false, true
	}
	return true, false
}

// closedLoop runs every connection in a closed loop for d: each sends its
// next request only after reading the answer to the previous one. A
// broken connection ends the run with an error; error responses and
// wrong answers are counted as failures.
func closedLoop(conns []*client, ds *dataset, refs []answer, cur *cursor, d time.Duration) (*loopStats, error) {
	lines := make([][]byte, len(ds.texts))
	for i, t := range ds.texts {
		lines[i] = []byte("query " + t + "\n")
	}
	start := time.Now()
	deadline := start.Add(d)
	per := make([]loopStats, len(conns))
	errs := make([]error, len(conns))
	var wg sync.WaitGroup
	for ci, c := range conns {
		wg.Add(1)
		go func(st *loopStats, c *client, errp *error) {
			defer wg.Done()
			st.lat = make([]time.Duration, 0, 1<<14)
			st.done = make([]time.Duration, 0, 1<<14)
			for time.Now().Before(deadline) {
				text := ds.stream[cur.take(len(ds.stream))]
				t0 := time.Now()
				raw, err := c.roundTrip(lines[text])
				lat := time.Since(t0)
				if err != nil {
					*errp = fmt.Errorf("connection lost: %w", err)
					return
				}
				st.attempted++
				st.lat = append(st.lat, lat)
				st.done = append(st.done, t0.Add(lat).Sub(start))
				switch ok, wrong := check(raw, refs[text]); {
				case ok:
					st.ok++
				case wrong:
					st.wrong++
				default:
					st.errors++
				}
			}
		}(&per[ci], c, &errs[ci])
	}
	wg.Wait()
	total := &loopStats{elapsed: time.Since(start)}
	for i := range per {
		if errs[i] != nil {
			return nil, errs[i]
		}
		total.attempted += per[i].attempted
		total.ok += per[i].ok
		total.errors += per[i].errors
		total.wrong += per[i].wrong
		total.lat = append(total.lat, per[i].lat...)
		total.done = append(total.done, per[i].done...)
	}
	total.failed = total.errors + total.wrong
	return total, nil
}

// window is the measured closed-loop run and the process-wide costs it
// incurred.
type window struct {
	*loopStats
	qps               float64
	p50, p95          time.Duration
	cpuMSPerQuery     float64
	allocKBPerQuery   float64
	gcCPUFrac         float64
	gcCyclesPerKQuery float64
	stealFrac         float64 // host steal over the machine's CPU time
}

func (w *window) failedFrac() float64 { return float64(w.failed) / float64(w.attempted) }

const (
	mAllocs   = "/gc/heap/allocs:bytes"
	mGCCycles = "/gc/cycles/total:gc-cycles"
	mGCCPU    = "/cpu/classes/gc/total:cpu-seconds"
	mTotalCPU = "/cpu/classes/total:cpu-seconds"
	mIdleCPU  = "/cpu/classes/idle:cpu-seconds"
)

type snapshot struct {
	cpu     time.Duration // process user + system time
	runtime map[string]float64
	// steal and total are the machine's CPU ticks stolen by the host and
	// in all, from /proc/stat (zero where it cannot be read).
	steal, total uint64
}

func takeSnapshot() snapshot {
	samples := []metrics.Sample{{Name: mAllocs}, {Name: mGCCycles}, {Name: mGCCPU}, {Name: mTotalCPU}, {Name: mIdleCPU}}
	metrics.Read(samples)
	s := snapshot{runtime: map[string]float64{}}
	for _, m := range samples {
		switch m.Value.Kind() {
		case metrics.KindUint64:
			s.runtime[m.Name] = float64(m.Value.Uint64())
		case metrics.KindFloat64:
			s.runtime[m.Name] = m.Value.Float64()
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	s.steal, s.total = cpuTicks()
	return s
}

// cpuTicks reads the steal and total ticks of the machine's "cpu" line in
// /proc/stat. A high steal share marks a window in which the host ran
// other tenants on this machine's CPUs; it is reported, not corrected for.
func cpuTicks() (steal, total uint64) {
	buf, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(buf), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		n, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		if i < 8 { // user nice system idle iowait irq softirq steal; guest is in user
			total += n
		}
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}

func measure(conns []*client, ds *dataset, refs []answer, cur *cursor, seconds float64) (*window, error) {
	before := takeSnapshot()
	st, err := closedLoop(conns, ds, refs, cur, time.Duration(seconds*float64(time.Second)))
	if err != nil {
		return nil, err
	}
	after := takeSnapshot()
	if st.attempted == 0 {
		return nil, fmt.Errorf("no request completed in the measured window")
	}
	delta := func(name string) float64 { return after.runtime[name] - before.runtime[name] }
	n := float64(st.attempted)
	w := &window{
		loopStats:         st,
		qps:               float64(st.ok) / st.elapsed.Seconds(),
		p50:               percentile(st.lat, 0.50),
		p95:               percentile(st.lat, 0.95),
		cpuMSPerQuery:     (after.cpu - before.cpu).Seconds() * 1e3 / n,
		allocKBPerQuery:   delta(mAllocs) / 1024 / n,
		gcCyclesPerKQuery: delta(mGCCycles) * 1000 / n,
	}
	if busy := delta(mTotalCPU) - delta(mIdleCPU); busy > 0 {
		w.gcCPUFrac = delta(mGCCPU) / busy
	}
	if ticks := after.total - before.total; ticks > 0 {
		w.stealFrac = float64(after.steal-before.steal) / float64(ticks)
	}
	return w, nil
}

// percentile is the nearest-rank percentile.
func percentile(lat []time.Duration, q float64) time.Duration {
	s := append([]time.Duration(nil), lat...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}
