package main

import (
	"encoding/json"
	"hash/crc32"
	"os"
	"reflect"
	"testing"
	"time"
)

// corrupting wraps a batch workload and falsifies the region count of
// the ops whose list index is bad, as a broken labeling would.
type corrupting struct {
	*missionWL
	bad int
}

func (c corrupting) do(i, op int, rec *recorder, cs counters) (time.Duration, outcome) {
	wall, out := c.missionWL.do(i, op, rec, cs)
	if i == c.bad && op >= 0 {
		out.(*missionOut).regions++
	}
	return wall, out
}

func smallMission() *missionWL {
	return &missionWL{label: "mission", side: 8, density: 6, listLen: 4,
		opCost: 25 * time.Millisecond, limit: time.Second}
}

func TestCorruptedOutputLowersOkFrac(t *testing.T) {
	cfg := config{workload: "mission", seed: defaultSeed, seconds: 1, start: time.Now()}
	clean, err := runBatch(smallMission(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := clean.metrics["ok_frac"].Value; got != 1 || !clean.correct() {
		t.Fatalf("clean run: ok_frac %v, correct %v", got, clean.correct())
	}
	bad, err := runBatch(corrupting{smallMission(), 1}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	passes := bad.attempted / 4
	if bad.failed != passes || bad.correct() {
		t.Fatalf("corrupted run: %d of %d ops failed, want %d; correct %v", bad.failed, bad.attempted, passes, bad.correct())
	}
	if got, want := bad.metrics["ok_frac"].Value, 0.75; got != want {
		t.Fatalf("corrupted run: ok_frac %v, want %v", got, want)
	}
}

func TestCheckReplyRejectsCorruptedBodies(t *testing.T) {
	result := []byte("{\"checksum\":\"00ff\"}\n")
	tr := []byte("{\"e\":1}\n{\"e\":2}\n")
	reply := func(body string) sreply {
		return sreplyOf([]byte(body))
	}
	hitBody := string(tr) + "\n" + string(result)
	cases := []struct {
		name        string
		rp          sreply
		hit, stream bool
		ok          bool
	}{
		{"plain", reply(string(result)), false, false, true},
		{"plain corrupted", reply("{\"checksum\":\"00fe\"}\n"), false, false, false},
		{"streamed hit", reply(hitBody), true, true, true},
		{"streamed hit corrupted", reply(string(tr[:len(tr)-2]) + "3}\n\n" + string(result)), true, true, false},
		{"streamed first", reply("{\"e\":2}\n{\"e\":1}\n\n" + string(result)), false, true, true},
		{"streamed first without events", reply("\n" + string(result)), false, true, true},
		{"streamed first corrupted", reply("{\"e\":2}\n\n{\"checksum\":\"00fe\"}\n"), false, true, false},
		{"refused", sreply{status: 429}, false, false, false},
	}
	for _, c := range cases {
		err := checkReply(c.rp, result, tr, c.hit, c.stream)
		if (err == nil) != c.ok {
			t.Errorf("%s: checkReply = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

// sreplyOf is a 200 reply carrying body, as send records it.
func sreplyOf(body []byte) sreply {
	rp := sreply{status: 200, n: len(body)}
	rp.crc = crc32.ChecksumIEEE(body)
	rp.tail = append([]byte(nil), body[max(0, len(body)-tailCap):]...)
	return rp
}

func TestServePlan(t *testing.T) {
	specs, reqs, err := planServe(defaultSeed, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != serveRate*10 {
		t.Fatalf("%d requests, want %d", len(reqs), serveRate*10)
	}
	firsts := 0
	for i, r := range reqs {
		sp := specs[r.spec]
		if !r.repeat {
			firsts++
			if sp.reqs[0] != i {
				t.Fatalf("request %d is a first submission but spec %d starts at %d", i, r.spec, sp.reqs[0])
			}
			continue
		}
		if !sp.stream {
			t.Fatalf("request %d repeats an untraced spec", i)
		}
		if r.spec >= len(serveClasses) && reqs[sp.reqs[0]].due+repeatGap > r.due {
			t.Fatalf("request %d is due %v after its first, want at least %v", i, r.due-reqs[sp.reqs[0]].due, repeatGap)
		}
	}
	warm := len(serveClasses)
	if want := len(reqs) * warm / serveBlock; firsts != want || len(specs) != want+warm {
		t.Fatalf("%d first submissions over %d specs, want %d over %d", firsts, len(specs), want, want+warm)
	}
	again, reqs2, _ := planServe(defaultSeed, 10)
	if !reflect.DeepEqual(specs, again) || !reflect.DeepEqual(reqs, reqs2) {
		t.Fatal("the same seed gave a different plan")
	}
	other, _, _ := planServe(heldOutSeed, 10)
	if reflect.DeepEqual(specs, other) {
		t.Fatal("another seed gave the same plan")
	}
}

func TestTailPercentile(t *testing.T) {
	for n, want := range map[int]int{60: 83, 64: 84, 72: 86, 1200: 99, 20: 50} {
		if got := tailPercentile(n); got != want {
			t.Errorf("tailPercentile(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestCoveredMergesOverlaps(t *testing.T) {
	root := span{Start: 0, End: 100}
	kids := []span{{Start: 10, End: 30}, {Start: 20, End: 40}, {Start: 50, End: 60}, {Start: 90, End: 120}}
	if got := covered(root, kids); got != 50 {
		t.Fatalf("covered = %v, want 50", got)
	}
}

// TestMetricNamesMatchBenchmarkJSON keeps the reported names and units in
// step with the benchmark's declaration at the repository root.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, code []metricDef, declared []struct{ Name, Unit string }) {
		if len(code) != len(declared) {
			t.Errorf("%s: %d metrics in code, %d declared", kind, len(code), len(declared))
			return
		}
		for i, m := range code {
			if m.name != declared[i].Name || m.unit != declared[i].Unit {
				t.Errorf("%s[%d]: code %s/%s, declared %s/%s", kind, i, m.name, m.unit, declared[i].Name, declared[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, decl.EndToEnd)
	check("per_layer", perLayer, decl.PerLayer)
}
