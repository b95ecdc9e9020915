package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// The CPU profile of a traced run is split by layer from the text form
// `go tool pprof -raw` prints, which needs nothing beyond the toolchain.

// frame is one function of a sample's stack.
type frame struct {
	fn, file string
}

// rawProfile is the part of a `pprof -raw` listing the split needs.
type rawProfile struct {
	samples []rawSample
	locs    map[int][]frame // innermost inlined function first
}

type rawSample struct {
	nanos int64
	locs  []int // leaf first
}

// parseRaw reads `go tool pprof -raw` output of a CPU profile.
func parseRaw(r io.Reader) (*rawProfile, error) {
	p := &rawProfile{locs: make(map[int][]frame)}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	section := ""
	lastLoc := -1
	for n := 1; sc.Scan(); n++ {
		line := sc.Text()
		switch strings.TrimSpace(line) {
		case "Samples:", "Locations", "Mappings":
			section = strings.TrimSuffix(strings.TrimSpace(line), ":")
			continue
		}
		switch section {
		case "Samples":
			// "<count> <nanoseconds>: <loc> <loc> ...", or a label line.
			head, ids, ok := strings.Cut(line, ":")
			fields := strings.Fields(head)
			if !ok || len(fields) != 2 {
				continue
			}
			nanos, err := strconv.ParseInt(fields[1], 10, 64)
			if err != nil {
				continue // the "samples/count cpu/nanoseconds" header
			}
			s := rawSample{nanos: nanos}
			for _, f := range strings.Fields(ids) {
				id, err := strconv.Atoi(f)
				if err != nil {
					return nil, fmt.Errorf("pprof -raw line %d: location %q", n, f)
				}
				s.locs = append(s.locs, id)
			}
			p.samples = append(p.samples, s)
		case "Locations":
			// "<id>: 0x<addr> M=<m> <func> <file:line:col> s=<n>", then one
			// indented "<func> <file:line:col> s=<n>" line per caller the
			// function was inlined into. Function names may hold spaces.
			text := strings.TrimSpace(line)
			if head, rest, ok := strings.Cut(text, ": 0x"); ok {
				id, err := strconv.Atoi(head)
				if err != nil {
					return nil, fmt.Errorf("pprof -raw line %d: location id %q", n, head)
				}
				lastLoc = id
				p.locs[id] = nil
				fields := strings.SplitN(rest, " ", 3) // addr, M=, function part
				if len(fields) < 3 {
					continue // an unsymbolized address
				}
				text = fields[2]
			} else if lastLoc < 0 {
				continue
			}
			if f, ok := parseFrame(text); ok {
				p.locs[lastLoc] = append(p.locs[lastLoc], f)
			}
		}
	}
	return p, sc.Err()
}

// parseFrame splits "<func> <file:line:col> s=<n>".
func parseFrame(text string) (frame, bool) {
	if i := strings.LastIndex(text, " s="); i >= 0 {
		text = text[:i]
	}
	i := strings.LastIndex(text, " ")
	if i < 0 {
		return frame{fn: text}, text != ""
	}
	return frame{fn: text[:i], file: text[i+1:]}, true
}

// pcCapture names the internal/sim functions that capture and resolve an
// access's program counter for event listeners.
var pcCapture = []string{"(*Thread).PC", "(*Thread).CallersPC", "scanAccessors", "isAccessorFrame", "SitePos", "fpchain"}

// repoLayers are the internal packages reported as layers of their own.
var repoLayers = map[string]bool{
	"sched": true, "mem": true, "mhm": true, "ihash": true, "fpround": true, "racefilter": true,
	"explore": true, "farm": true, "fleet": true, "core": true, "replay": true, "obs": true, "apps": true,
}

// gcPrefixes are the Go runtime's garbage collector and allocator.
var gcPrefixes = []string{
	"runtime.mallocgc", "runtime.gc", "runtime.markroot", "runtime.scan", "runtime.greyobject",
	"runtime.bgsweep", "runtime.bgscavenge", "runtime.sweepone", "runtime.wbBuf", "runtime.(*gcWork)",
	"runtime.(*mspan).sweep", "runtime.(*sweepLocked)",
}

// layerOf names the layer a frame belongs to, or "" when the frame
// decides nothing and the walk goes on to its caller.
func layerOf(f frame) string {
	fn := f.fn
	if strings.HasPrefix(fn, "runtime.coroswitch") || strings.HasPrefix(fn, "iter.Pull") {
		return "sched.coro"
	}
	for _, p := range gcPrefixes {
		if strings.HasPrefix(fn, p) {
			return "runtime.gc"
		}
	}
	if strings.HasPrefix(fn, "main.") {
		return "harness"
	}
	rest, ok := strings.CutPrefix(fn, "instantcheck/internal/")
	if !ok {
		return ""
	}
	pkg, name, _ := strings.Cut(rest, ".")
	switch {
	case pkg == "sim":
		for _, p := range pcCapture {
			if name == p || strings.HasPrefix(name, p+".") {
				return "sim.pc"
			}
		}
		if strings.HasPrefix(name, "(*Thread).") {
			return "sim.accessor"
		}
		return "sim.machine"
	case pkg == "replay" && strings.Contains(f.file, "internal/replay/marshal.go:"):
		return "fleet" // replay bundles are the fleet's wire format
	case repoLayers[pkg]:
		return pkg
	}
	return ""
}

// httpPrefixes are the loopback HTTP stack between the client, checkd and
// the fleet workers; schedPrefixes are the Go scheduler's own loops. The
// roots every stack shares (runtime.goexit, runtime.mstart, runtime.mcall)
// are not among them: they would claim every stack that nothing else
// claims.
var (
	httpPrefixes  = []string{"net/http.", "net.", "net/textproto.", "net/url.", "internal/poll.", "bufio."}
	schedPrefixes = []string{"runtime.schedule", "runtime.findRunnable", "runtime.park_m", "runtime.gosched",
		"runtime.goschedImpl", "runtime.sysmon", "runtime.stopm", "runtime.startm", "runtime.wakep",
		"runtime.newproc"}
)

// fallbackOf names the layer of a frame on a stack where no frame named
// one: the HTTP stack (http) or the Go scheduler (runtime.sched).
func fallbackOf(f frame) string {
	for _, p := range httpPrefixes {
		if strings.HasPrefix(f.fn, p) {
			return "http"
		}
	}
	for _, p := range schedPrefixes {
		if strings.HasPrefix(f.fn, p) {
			return "runtime.sched"
		}
	}
	return ""
}

// attribute gives each sample to the first frame, from the leaf outward,
// that names a layer; a stack with none goes to the first frame that
// names a fallback layer. It returns nanoseconds per layer; "" holds the
// samples no frame claimed.
func (p *rawProfile) attribute() map[string]int64 {
	out := make(map[string]int64)
	for _, s := range p.samples {
		layer := p.walk(s, layerOf)
		if layer == "" {
			layer = p.walk(s, fallbackOf)
		}
		out[layer] += s.nanos
	}
	return out
}

// walk returns the first layer that a frame of s names, leaf first.
func (p *rawProfile) walk(s rawSample, of func(frame) string) string {
	for _, id := range s.locs {
		for _, f := range p.locs[id] {
			if layer := of(f); layer != "" {
				return layer
			}
		}
	}
	return ""
}

// profileLayers runs `go tool pprof -raw` on a CPU profile of this binary
// and splits it by layer.
func profileLayers(profPath string) (map[string]int64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out, errb bytes.Buffer
	cmd := exec.Command("go", "tool", "pprof", "-raw", exe, profPath)
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go tool pprof -raw: %v: %s", err, errb.String())
	}
	p, err := parseRaw(&out)
	if err != nil {
		return nil, err
	}
	return p.attribute(), nil
}
