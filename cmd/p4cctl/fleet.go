package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"strings"
	"time"

	"pipeleon/internal/fleet"
)

// runFleet implements the `p4cctl fleet` subcommands against a fleetd
// HTTP API:
//
//	p4cctl fleet [-fleet http://127.0.0.1:9560] status
//	p4cctl fleet rollout -program prog.json
//	p4cctl fleet optimize
//	p4cctl fleet quarantine -device sim3
//	p4cctl fleet recover -device sim3
func runFleet(args []string) {
	fs := flag.NewFlagSet("fleet", flag.ExitOnError)
	base := fs.String("fleet", "http://127.0.0.1:9560", "fleetd API base URL")
	device := fs.String("device", "", "device name (quarantine/recover)")
	progPath := fs.String("program", "", "program JSON to roll out")
	timeout := fs.Duration("timeout", 60*time.Second, "HTTP timeout (rollouts measure every device)")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: p4cctl fleet [-fleet URL] status|rollout|optimize|quarantine|recover [flags]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil || fs.NArg() < 1 {
		fs.Usage()
		os.Exit(2)
	}
	verb := fs.Arg(0)
	// Accept flags after the verb too (`fleet quarantine -device sim2`).
	if rest := fs.Args()[1:]; len(rest) > 0 {
		if err := fs.Parse(rest); err != nil {
			fs.Usage()
			os.Exit(2)
		}
	}
	client := &http.Client{Timeout: *timeout}

	switch verb {
	case "status":
		var st fleet.Status
		fleetCall(client, http.MethodGet, *base+"/v1/status", nil, &st)
		printFleetStatus(st)
	case "rollout":
		if *progPath == "" {
			fatal("fleet rollout needs -program")
		}
		prog, err := os.ReadFile(*progPath)
		if err != nil {
			fatal("%v", err)
		}
		var rep fleet.RolloutReport
		fleetCall(client, http.MethodPost, *base+"/v1/rollout", bytes.NewReader(prog), &rep)
		printRollout(rep)
	case "optimize":
		var reps []fleet.RolloutReport
		fleetCall(client, http.MethodPost, *base+"/v1/optimize", nil, &reps)
		if len(reps) == 0 {
			fmt.Println("no profitable plans; fleet unchanged")
		}
		for _, rep := range reps {
			printRollout(rep)
		}
	case "quarantine", "recover":
		if *device == "" {
			fatal("fleet %s needs -device", verb)
		}
		u := fmt.Sprintf("%s/v1/%s?device=%s", *base, verb, url.QueryEscape(*device))
		var ack map[string]string
		fleetCall(client, http.MethodPost, u, nil, &ack)
		past := verb + "ed"
		if strings.HasSuffix(verb, "e") {
			past = verb + "d"
		}
		fmt.Printf("%s: %s\n", *device, past)
	default:
		fs.Usage()
		os.Exit(2)
	}
}

// fleetCall performs one API call and decodes the JSON response into out,
// dying with the server's error message on a non-2xx status.
func fleetCall(client *http.Client, method, u string, body io.Reader, out any) {
	req, err := http.NewRequest(method, u, body)
	if err != nil {
		fatal("%v", err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		fatal("fleetd: %v", err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		fatal("reading response: %v", err)
	}
	if resp.StatusCode/100 != 2 {
		var e map[string]string
		if json.Unmarshal(data, &e) == nil && e["error"] != "" {
			fatal("fleetd: %s", e["error"])
		}
		fatal("fleetd: %s", resp.Status)
	}
	if err := json.Unmarshal(data, out); err != nil {
		fatal("decoding response: %v", err)
	}
}

func printFleetStatus(st fleet.Status) {
	fmt.Printf("fleet: %d devices — %d healthy, %d degraded, %d quarantined, %d recovering (%d serving)\n",
		len(st.Devices), st.Healthy, st.Degraded, st.Quarantined, st.Recovering, st.Serving)
	fmt.Printf("rollouts: %d total, %d halted, %d fleet rollbacks\n",
		st.Rollouts, st.HaltedRollouts, st.FleetRollbacks)
	fmt.Printf("search: %d canary runtimes, %d searches in %s; skeletons %d reused / %d built, verify memo %d hits / %d misses\n",
		st.OptSearch.Sessions, st.OptSearch.Rounds,
		time.Duration(st.OptSearch.TotalSearchNs),
		st.OptSearch.UnitHits, st.OptSearch.UnitMisses,
		st.OptSearch.VerifyHits, st.OptSearch.VerifyMisses)
	if o := st.OptSearch; o.ProofMemoHits+o.ProofMemoMisses > 0 {
		fmt.Printf("proof: %d run, %d answered from the program memo; %d of %d conditionals forced\n",
			o.ProofMemoMisses, o.ProofMemoHits, o.ProofForcedConds, o.ProofTotalConds)
	}
	for _, d := range st.Devices {
		line := fmt.Sprintf("  %-12s %-11s model=%s probes=%d/%d deploys=%d/%d rollbacks=%d",
			d.Name, d.State, d.Model, d.Probes-d.ProbeFails, d.Probes,
			d.Deploys-d.DeployFails, d.Deploys, d.RolledBack)
		if d.Permanent {
			line += " PERMANENT"
		}
		if d.LastError != "" {
			line += " err=" + d.LastError
		}
		fmt.Println(line)
	}
}

func printRollout(rep fleet.RolloutReport) {
	switch {
	case rep.Halted && rep.RolledBack:
		fmt.Printf("rollout %s HALTED (%s); rolled back %d committed devices\n",
			rep.Fingerprint, rep.HaltReason, rep.Failed)
	case rep.Halted:
		fmt.Printf("rollout %s HALTED (%s); nothing to roll back\n", rep.Fingerprint, rep.HaltReason)
	default:
		fmt.Printf("rollout %s committed on %d devices\n", rep.Fingerprint, len(rep.Committed))
	}
	for _, r := range rep.Results {
		state := "committed"
		switch {
		case r.Converged:
			state = "already converged"
		case r.FleetRolledBack:
			state = "fleet-rolled-back"
		case r.RolledBack:
			state = "rolled back (verify)"
		case !r.Committed:
			state = "failed"
		}
		line := fmt.Sprintf("  %-12s stage=%d %s", r.Device, r.Stage, state)
		if r.VerifyDelta != 0 {
			line += fmt.Sprintf(" delta=%+.1f%%", r.VerifyDelta*100)
		}
		if r.Err != "" {
			line += " err=" + r.Err
		}
		fmt.Println(line)
	}
	if len(rep.Skipped) > 0 {
		fmt.Printf("  skipped (not serving): %v\n", rep.Skipped)
	}
}
