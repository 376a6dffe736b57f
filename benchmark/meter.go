package main

import (
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync/atomic"
	"time"
)

// The host's speed is not a constant. The machine this benchmark was written
// on is two virtual processors of a shared host, and the same op — same
// input, same allocation count — was measured to take 620 ms and, half a
// minute later, 1150 ms, all of it user time, with nothing else running in
// the virtual machine; a journaled write went from 0.45 ms to 1.8 ms and
// back inside a minute while the reads beside it stayed put. Ten runs of
// identical work then spread by a third, which no bound can tell from a
// regression. So the benchmark measures the host while it measures the
// program: small fixed pieces of work — the sensors below, which call
// nothing of the program and allocate nothing — run interleaved with the
// ops, and every timing is scaled by how much slower than on the reference
// host the sensors ran around it. A normalized millisecond is a millisecond
// of the reference host (the builder's, in its quiet state).
//
// What slows the host, as far as the sensors could tell it apart:
//
//   - a neighbour on the other hardware thread of the core: code that keeps
//     many execution units busy slows by up to 1.8×, code that waits on one
//     dependency chain or on memory barely at all (a byte-at-a-time FNV loop
//     moved 5% while the op beside it moved 80%). The ilp sensor is built to
//     feel this, the map sensor feels it as ordinary Go code does;
//   - neighbours in the shared cache and on the memory bus: the map sensor.
//     (A third sensor that streamed 16 MB tracked the ops no better than
//     these two together and cost twice their time, so it was dropped);
//   - the shared disk: the time of an fsync, which the disk sensor measures
//     with a 4 KB write+fsync of its own.
//
// The processor's factor is a weighted mean of the ilp and the map sensors'
// (hostMix.ilp) — the plain mean for every workload but analyze-oneshot: on
// traces of each workload's op and the sensors side by side, taken while the
// host swung the ops by 20 to 50% between the quartiles of 10-second
// windows, that brought the spread to 2 to 9%, and session-edits, storm-fig11
// and sweep-chaos wanted other weights by no more than the traces differed
// among themselves. analyze-oneshot — parsing and encoding, byte after byte,
// little of it lookups — slows less than the map sensor when the cache is
// contended (its sets of ten runs read 650, 654, 594 and 571 ms under the
// plain mean as the map sensor went from 1.2 to 2.5 times its reference and
// the ilp sensor from 1.1 to 1.4); it gives the ilp sensor three quarters. An
// op class that waits for the disk names the share of its time on the
// reference host that is the wait (diskShare), and that share is scaled by
// the disk sensor. These constants are part of the benchmark's definition
// like the workload sizes: the parent and the change are measured with the
// same ones.

// The sensors, by index into hostSample.ms and sensorRefMs.
const (
	sensorILP = iota
	sensorMap
	sensorDisk
	numSensors
)

var sensorNames = [numSensors]string{"ilp", "map", "disk"}

// sensorRefMs is each sensor's time on the reference host.
var sensorRefMs = [numSensors]float64{0.50, 0.34, 0.30}

// sensorSink keeps the compiler from discarding the sensors' work.
var sensorSink uint64

// ilpSensor runs eight independent chains of cheap arithmetic: as many
// instructions per cycle as the core gives, which is what a busy sibling
// hardware thread takes away.
func ilpSensor() {
	a, b, c, d, e, f, g, h := uint64(1), uint64(2), uint64(3), uint64(4), uint64(5), uint64(6), uint64(7), uint64(8)
	for i := 0; i < 250000; i++ {
		a = a*3 + 1
		b = b ^ (b << 7) + 5
		c = c + (c >> 3) + 7
		d = d*5 + 3
		e = e ^ (e >> 9) + 11
		f = f + (f << 2) + 13
		g = g*9 + 1
		h = h ^ (h << 5) + 17
	}
	sensorSink += a + b + c + d + e + f + g + h
}

var (
	mapSensorKeys  []string
	mapSensorTable = func() map[string]int {
		m := map[string]int{}
		for i := 0; i < 8192; i++ {
			k := "component-" + strconv.Itoa(i*7919)
			mapSensorKeys = append(mapSensorKeys, k)
			m[k] = i
		}
		return m
	}()
)

// mapSensor looks 8192 string keys up in a map, three times over: hashing,
// comparing and chasing buckets through half a megabyte, the staple of the
// analyzer and the simulators.
func mapSensor() {
	var s int
	for pass := 0; pass < 3; pass++ {
		for _, k := range mapSensorKeys {
			s += mapSensorTable[k]
		}
	}
	sensorSink += uint64(s)
}

var diskSensorBlock = make([]byte, 4096)

// hostSample is one reading of the sensors: when it was taken (since the
// meter started) and how long each sensor took, in ms.
type hostSample struct {
	start, end time.Duration
	ms         [numSensors]float64
}

// diskShare is, by op class, the share of an op's time on the reference host
// that is spent waiting for the disk; a class it does not name waits for none.
type diskShare map[string]float64

// hostMix is how a workload's timings weigh the sensors: ilp is the ilp
// sensor's weight in the processor's factor (the map sensor has the rest),
// disk the op classes that wait for the disk (nil: the workload does not
// touch it, and the disk sensor stays off).
type hostMix struct {
	ilp  float64
	disk diskShare
}

var (
	evenMix    = hostMix{ilp: 0.5}
	analyzeMix = hostMix{ilp: 0.75}
	// serveMix: a journaled write took 0.45 ms on the reference host, of which
	// the fsync was 0.16. The set-up opens the journal and makes the warm-up
	// session's ten writes in 11 ms; sixteen runs while the host went between
	// its fast and its slow state spread 6% with no share of that given to the
	// disk, 2.3% with half.
	serveMix = hostMix{ilp: 0.5, disk: diskShare{"create": 0.35, "mutate": 0.35, "delete": 0.35, "setup": 0.5}}
)

// meteredOp is one correctly completed op as measured.
type meteredOp struct {
	class      string
	start, end time.Duration
}

// meter books the ops of a run in host-normalized time. Sensor readings are
// taken either by a goroutine of the meter's own that the scheduler
// time-slices with the op (interleave — for the workloads that run on one
// processor, where an op can take a second and the host changes speed within
// it), or by the workload between ops (sample — for the server workload,
// whose ops are short and wait on the disk and the socket). finish turns ops
// and readings into normalized samples.
type meter struct {
	res     *result
	mix     hostMix
	t0      time.Time
	samples []hostSample
	ops     []meteredOp
	probe   *os.File // the disk sensor's file; nil without a disk sensor

	stop atomic.Bool
	done chan struct{} // closed when the interleaving goroutine has exited
}

// newMeter returns a meter for one run. With a mix that names disk shares
// the disk sensor is on and writes its file into probeDir.
func newMeter(res *result, mix hostMix, probeDir string) (*meter, error) {
	m := &meter{res: res, mix: mix, t0: time.Now(), samples: make([]hostSample, 0, 4096)}
	if mix.disk != nil {
		f, err := os.Create(filepath.Join(probeDir, "disk-sensor"))
		if err != nil {
			return nil, err
		}
		m.probe = f
	}
	return m, nil
}

// sample takes one reading of every sensor.
func (m *meter) sample() {
	s := hostSample{start: time.Since(m.t0)}
	t := s.start
	lap := func() float64 {
		now := time.Since(m.t0)
		d := now - t
		t = now
		return float64(d) / 1e6
	}
	ilpSensor()
	s.ms[sensorILP] = lap()
	mapSensor()
	s.ms[sensorMap] = lap()
	if m.probe != nil {
		// An error here shows as a disk time of nothing, and the workload's own
		// writes to the same directory fail the run.
		for i := 0; i < 2; i++ {
			_, _ = m.probe.Write(diskSensorBlock)
			_ = m.probe.Sync()
		}
		s.ms[sensorDisk] = lap() / 2
	}
	s.end = t
	m.samples = append(m.samples, s)
}

// interleave starts the goroutine that takes a reading, yields, and takes
// the next when the scheduler comes back to it. The process must be running
// on one processor: the op's goroutine is then preempted every 10 to 20 ms,
// the reading takes 1, and what the op itself took is its wall time less the
// readings inside it.
func (m *meter) interleave() {
	if runtime.GOMAXPROCS(0) != 1 {
		panic("benchmark: meter.interleave needs GOMAXPROCS(1)")
	}
	m.done = make(chan struct{})
	go func() {
		defer close(m.done)
		for !m.stop.Load() {
			m.sample()
			runtime.Gosched()
		}
	}()
}

// record notes one correctly completed op that began at start and took d.
func (m *meter) record(class string, start time.Time, d time.Duration) {
	s := start.Sub(m.t0)
	m.ops = append(m.ops, meteredOp{class, s, s + d})
}

// finish stops the readings (a meter that does not interleave takes a last
// one, so that every op lies between two) and books every recorded op in
// res: its normalized duration under its class, and under "measured:" and
// "host:" names what was measured and what the sensors said.
func (m *meter) finish() error {
	if m.done != nil {
		m.stop.Store(true)
		<-m.done
	} else {
		m.sample()
	}
	for _, op := range m.ops {
		own, factors := m.around(op)
		cpu := m.mix.ilp*factors[sensorILP] + (1-m.mix.ilp)*factors[sensorMap]
		disk := m.mix.disk[op.class]
		factor := (1-disk)*cpu + disk*factors[sensorDisk]
		m.res.measuredMs += own
		m.res.busyMs += own / factor
		m.res.add(op.class, own/factor)
		m.res.detail["measured:"+op.class] = append(m.res.detail["measured:"+op.class], own)
		m.res.detail["host:"+op.class] = append(m.res.detail["host:"+op.class], factor)
		m.res.detail["at:"+op.class] = append(m.res.detail["at:"+op.class], float64(op.start)/1e6)
		for k, f := range factors {
			m.res.hostSum[k] += f
		}
	}
	m.res.hostN += len(m.ops)
	for _, s := range m.samples {
		for k, name := range sensorNames {
			m.res.detail["sensor:"+name] = append(m.res.detail["sensor:"+name], s.ms[k])
		}
		m.res.detail["sensor:at"] = append(m.res.detail["sensor:at"], float64(s.start)/1e6)
	}
	if m.probe == nil {
		return nil
	}
	name := m.probe.Name()
	if err := m.probe.Close(); err != nil {
		return err
	}
	return os.Remove(name)
}

// around returns what the op itself took in ms — its wall time less the
// readings taken inside it — and, per sensor, the mean over the readings
// from the last one before the op to the first one after it of the sensor's
// time as a multiple of its reference time.
func (m *meter) around(op meteredOp) (own float64, factors [numSensors]float64) {
	lo := sort.Search(len(m.samples), func(i int) bool { return m.samples[i].start >= op.start })
	hi := sort.Search(len(m.samples), func(i int) bool { return m.samples[i].start >= op.end })
	own = float64(op.end-op.start) / 1e6
	for _, s := range m.samples[lo:hi] {
		own -= float64(s.end-s.start) / 1e6
	}
	lo, hi = max(lo-1, 0), min(hi+1, len(m.samples))
	for _, s := range m.samples[lo:hi] {
		for k := range factors {
			factors[k] += s.ms[k] / sensorRefMs[k] / float64(hi-lo)
		}
	}
	if hi == lo { // no reading at all: a run too short for one
		for k := range factors {
			factors[k] = 1
		}
	}
	return own, factors
}

// normalized times fn as a one-op run of the workload and returns its
// host-normalized duration in seconds.
func normalized(def workloadDef, e env, fn func() error) (float64, error) {
	res := newResult()
	m, err := newMeter(res, def.host, e.tmp)
	if err != nil {
		return 0, err
	}
	if def.procs == 1 {
		m.interleave()
	} else {
		m.sample()
	}
	start := time.Now()
	err = fn()
	m.record("setup", start, time.Since(start))
	if ferr := m.finish(); err == nil {
		err = ferr
	}
	return res.samples["setup"][0] / 1e3, err
}
