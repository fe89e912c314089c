package fleet

import (
	"encoding/json"
	"reflect"
	"testing"
)

// TestWorkerRequestSchema: the coordinator's worker request marshals to
// exactly the /analyze keys a worker decodes.
func TestWorkerRequestSchema(t *testing.T) {
	req := workerRequest{
		Filename: "t.mc",
		Source:   "func main() {}",
		Knobs: Knobs{
			Schedules: 2, MaxSteps: 10, TimeoutMS: 10, NoCache: true,
			NoFootprint: true, NoProve: true, NoVM: true,
		},
		Loops: []LoopRef{{Fn: "main", Index: 0}},
	}
	data, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(data, &fields); err != nil {
		t.Fatal(err)
	}
	want := []string{"filename", "source", "schedules", "max_steps", "timeout_ms", "no_cache",
		"no_footprint", "no_prove", "no_vm", "loops"}
	if len(fields) != len(want) {
		t.Errorf("worker request has %d keys, want %d: %s", len(fields), len(want), data)
	}
	for _, k := range want {
		if _, ok := fields[k]; !ok {
			t.Errorf("worker request lacks key %q: %s", k, data)
		}
	}
	var back workerRequest
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, req) {
		t.Errorf("round trip = %+v, want %+v", back, req)
	}
}
