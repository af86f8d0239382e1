// Command pipmctl is the pipmd client: submit sweeps, watch their progress,
// and fetch stored artefacts over the daemon's HTTP API (DESIGN.md §15).
//
//	pipmctl submit -quick -workloads pr,canneal -schemes all -records 6000
//	pipmctl watch -id <job>
//	pipmctl status -id <job> -keys
//	pipmctl fetch -key <run-key> > result.json
//
// The daemon address comes from -addr or $PIPMD_ADDR (default
// http://localhost:8080).
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"pipm/internal/harness"
	"pipm/internal/service"
)

func usage() {
	fmt.Fprintf(os.Stderr, `usage: pipmctl <command> [flags]

commands:
  submit     submit a sweep; prints the job ID (add -wait to stream it too)
  status     list jobs, or report one job with -id
  watch      stream a job's events until it finishes (exit 1 unless done)
  fetch      print a stored run artefact by key (-timeseries/-trace variants)
  schemes    list the daemon's registered placement schemes
  workloads  list the daemon's registered workloads

run 'pipmctl <command> -h' for the command's flags
`)
	os.Exit(2)
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "submit":
		err = cmdSubmit(os.Args[2:])
	case "status":
		err = cmdStatus(os.Args[2:])
	case "watch":
		err = cmdWatch(os.Args[2:])
	case "fetch":
		err = cmdFetch(os.Args[2:])
	case "schemes":
		err = cmdList(os.Args[2:], "/v1/schemes")
	case "workloads":
		err = cmdList(os.Args[2:], "/v1/workloads")
	case "-h", "-help", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "pipmctl: unknown command %q\n", os.Args[1])
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "pipmctl:", err)
		os.Exit(1)
	}
}

// addrFlag installs the shared -addr flag on a subcommand's flag set.
func addrFlag(fs *flag.FlagSet) *string {
	def := os.Getenv("PIPMD_ADDR")
	if def == "" {
		def = "http://localhost:8080"
	}
	return fs.String("addr", def, "pipmd base URL (default $PIPMD_ADDR)")
}

// api wraps one error-mapped request: non-2xx responses decode the uniform
// {"error": ...} body into a Go error.
func api(method, url string, body io.Reader) (*http.Response, error) {
	return apiCtx(context.Background(), method, url, body)
}

func apiCtx(ctx context.Context, method, url string, body io.Reader) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, body)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode >= 400 {
		defer resp.Body.Close()
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
		var ae struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(raw, &ae) == nil && ae.Error != "" {
			return nil, fmt.Errorf("%s: %s", resp.Status, ae.Error)
		}
		return nil, fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(raw)))
	}
	return resp, nil
}

func getJSON(url string, v any) error {
	resp, err := api(http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(v)
}

// parseSubmit builds the submit command's sweep spec: the -f file, if any,
// then every flag the user set explicitly, including zero and negative
// values — the daemon's resolver judges them, not the client.
func parseSubmit(fs *flag.FlagSet, args []string) (spec harness.SweepSpec, addr string, wait bool, err error) {
	addrp := addrFlag(fs)
	var (
		specFile  = fs.String("f", "", "read the sweep spec from this JSON file ('-' for stdin); flags below override its fields")
		workloads = fs.String("workloads", "", "comma-separated workload names (empty = base default)")
		schemes   = fs.String("schemes", "", "comma-separated scheme names, or 'all' (empty = all)")
		records   = fs.Int64("records", 0, "per-core record budget (0 = base default)")
		seed      = fs.Int64("seed", 0, "workload seed (0 = base default)")
		quick     = fs.Bool("quick", false, "quick-scale base configuration")
		sample    = fs.String("timeseries", "", "sample interval enabling the per-run time-series (e.g. 10us)")
		trace     = fs.Bool("trace", false, "collect the protocol event trace")
		auditMode = fs.String("audit", "", "invariant auditor mode: off, quantum, paranoid")
		waitp     = fs.Bool("wait", false, "stream the job's events after submitting (like 'watch')")
	)
	if err := fs.Parse(args); err != nil {
		return spec, "", false, err
	}

	if *specFile != "" {
		var raw []byte
		if *specFile == "-" {
			raw, err = io.ReadAll(os.Stdin)
		} else {
			raw, err = os.ReadFile(*specFile)
		}
		if err != nil {
			return spec, "", false, err
		}
		if err := json.Unmarshal(raw, &spec); err != nil {
			return spec, "", false, fmt.Errorf("%s: %w", *specFile, err)
		}
	}
	list := func(s string) []string {
		if s == "" {
			return nil
		}
		return strings.Split(s, ",")
	}
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "workloads":
			spec.Workloads = list(*workloads)
		case "schemes":
			spec.Schemes = list(*schemes)
		case "records":
			spec.Records = *records
		case "seed":
			spec.Seed = *seed
		case "quick":
			spec.Quick = *quick
		case "timeseries":
			spec.SampleInterval = *sample
		case "trace":
			spec.Trace = *trace
		case "audit":
			spec.Audit = *auditMode
		}
	})
	return spec, *addrp, *waitp, nil
}

func cmdSubmit(args []string) error {
	spec, addr, wait, err := parseSubmit(flag.NewFlagSet("pipmctl submit", flag.ExitOnError), args)
	if err != nil {
		return err
	}
	body, err := json.Marshal(spec)
	if err != nil {
		return err
	}
	resp, err := api(http.MethodPost, addr+"/v1/sweeps", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var sub service.SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		return err
	}
	note := "submitted"
	if sub.Deduped {
		note = "deduped onto existing job"
	}
	fmt.Fprintf(os.Stderr, "pipmctl: %s: %d runs, state %s\n", note, sub.Total, sub.State)
	fmt.Println(sub.ID)
	if wait {
		return watch(addr, sub.ID)
	}
	return nil
}

func cmdStatus(args []string) error {
	fs := flag.NewFlagSet("pipmctl status", flag.ExitOnError)
	addr := addrFlag(fs)
	var (
		id       = fs.String("id", "", "job ID (empty lists every job)")
		jsonOut  = fs.Bool("json", false, "print the raw JSON status")
		keysOnly = fs.Bool("keys", false, "print only the job's run keys, one per line")
	)
	fs.Parse(args)

	if *id == "" {
		var jobs []service.JobStatus
		if err := getJSON(*addr+"/v1/sweeps", &jobs); err != nil {
			return err
		}
		if *jsonOut {
			return printJSON(jobs)
		}
		for _, j := range jobs {
			fmt.Printf("%s  %-9s  %d/%d done", j.ID, j.State, j.Done, j.Total)
			if j.Failed > 0 {
				fmt.Printf("  %d failed", j.Failed)
			}
			fmt.Println()
		}
		return nil
	}

	var j service.JobStatus
	if err := getJSON(*addr+"/v1/sweeps/"+*id, &j); err != nil {
		return err
	}
	if *keysOnly {
		for _, r := range j.Runs {
			fmt.Println(r.Key)
		}
		return nil
	}
	if *jsonOut {
		return printJSON(j)
	}
	fmt.Printf("job %s: %s, %d/%d done", j.ID, j.State, j.Done, j.Total)
	if j.Failed > 0 {
		fmt.Printf(", %d failed", j.Failed)
	}
	if j.Error != "" {
		fmt.Printf(" (%s)", j.Error)
	}
	fmt.Println()
	for _, r := range j.Runs {
		fmt.Printf("  %-9s  %-10s %-10s %s\n", r.State, r.Workload, r.Scheme, r.Key)
	}
	return nil
}

func cmdWatch(args []string) error {
	fs := flag.NewFlagSet("pipmctl watch", flag.ExitOnError)
	addr := addrFlag(fs)
	id := fs.String("id", "", "job ID (required)")
	fs.Parse(args)
	if *id == "" {
		return fmt.Errorf("watch: -id is required")
	}
	return watch(*addr, *id)
}

// watch consumes a job's SSE stream until its terminal event, echoing one
// line per event. Exit error unless the job finished done.
func watch(addr, id string) error {
	resp, err := api(http.MethodGet, addr+"/v1/sweeps/"+id+"/events", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev service.Event
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			return fmt.Errorf("bad event %q: %w", line, err)
		}
		switch ev.Type {
		case "run":
			detail := ""
			if ev.Stats != nil {
				detail = fmt.Sprintf("  %.0f ms", ev.Stats.WallMS)
				if ev.Stats.StoreHit {
					detail += " (store)"
				}
			}
			if ev.Error != "" {
				detail += "  " + ev.Error
			}
			fmt.Printf("[%d/%d] %-9s %-10s %-10s%s\n",
				ev.Done, ev.Total, ev.State, ev.Workload, ev.Scheme, detail)
		case "job":
			fmt.Printf("job %s: %s (%d/%d done)\n", ev.Job, ev.State, ev.Done, ev.Total)
			if st := service.JobState(ev.State); st.Terminal() {
				if st != service.JobDone {
					return fmt.Errorf("job finished %s", st)
				}
				return nil
			}
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("event stream: %w", err)
	}
	return fmt.Errorf("event stream ended before the job finished")
}

func cmdFetch(args []string) error {
	fs := flag.NewFlagSet("pipmctl fetch", flag.ExitOnError)
	addr := addrFlag(fs)
	var (
		key     = fs.String("key", "", "canonical run key (required; see 'status -keys')")
		out     = fs.String("o", "", "write to this file instead of stdout")
		ts      = fs.Bool("timeseries", false, "fetch the run's interval time-series instead of the raw entry")
		trace   = fs.Bool("trace", false, "fetch the run's Perfetto trace instead of the raw entry")
		timeout = fs.Duration("timeout", time.Minute, "request timeout")
	)
	fs.Parse(args)
	if *key == "" {
		return fmt.Errorf("fetch: -key is required")
	}
	if *ts && *trace {
		return fmt.Errorf("fetch: -timeseries and -trace are mutually exclusive")
	}
	url := *addr + "/v1/runs/" + *key
	switch {
	case *ts:
		url += "/timeseries"
	case *trace:
		url += "/trace"
	}

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	resp, err := apiCtx(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()

	w := io.Writer(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	_, err = io.Copy(w, resp.Body)
	return err
}

func cmdList(args []string, path string) error {
	fs := flag.NewFlagSet("pipmctl "+strings.TrimPrefix(path, "/v1/"), flag.ExitOnError)
	addr := addrFlag(fs)
	jsonOut := fs.Bool("json", false, "print the raw JSON")
	fs.Parse(args)

	var raw json.RawMessage
	if err := getJSON(*addr+path, &raw); err != nil {
		return err
	}
	if *jsonOut {
		fmt.Println(string(raw))
		return nil
	}
	switch path {
	case "/v1/schemes":
		var schemes []service.SchemeInfo
		if err := json.Unmarshal(raw, &schemes); err != nil {
			return err
		}
		for _, s := range schemes {
			fmt.Printf("%-10s %-10s %s\n", s.Name, s.Family, s.Description)
		}
	case "/v1/workloads":
		var wls []service.WorkloadInfo
		if err := json.Unmarshal(raw, &wls); err != nil {
			return err
		}
		for _, w := range wls {
			if w.Mechanistic {
				fmt.Printf("%-12s %-10s %4d MiB  mechanistic\n", w.Name, w.Suite, w.FootprintBytes>>20)
				continue
			}
			fmt.Printf("%-12s %-10s %4d MiB  shared %.0f%%  writes %.0f%%\n",
				w.Name, w.Suite, w.FootprintBytes>>20, 100*w.SharedFrac, 100*w.WriteFrac)
		}
	}
	return nil
}

func printJSON(v any) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
