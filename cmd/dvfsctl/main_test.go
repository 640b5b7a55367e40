package main

import (
	"bytes"
	"encoding/json"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"videodvfs/internal/server"
)

// logCapture tees the standard logger into a buffer so the test can
// recover the ephemeral listen address from the startup line.
type logCapture struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (c *logCapture) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.buf.Write(p)
}

func (c *logCapture) String() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.buf.String()
}

var listenLine = regexp.MustCompile(`listening on (\S+)`)

// TestRunServesAndDrainsOnSignal boots a real dvfsd worker, points the
// controller at it on an ephemeral port, exercises /healthz and a real
// fanned-out /v1/sweep, then delivers SIGTERM and asserts run() drains
// and returns nil.
func TestRunServesAndDrainsOnSignal(t *testing.T) {
	wsrv := server.New(server.Config{Workers: 2})
	wts := httptest.NewServer(wsrv.Handler())
	t.Cleanup(wts.Close)

	capt := &logCapture{}
	prev := log.Writer()
	log.SetOutput(capt)
	defer log.SetOutput(prev)

	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0", "-workers", wts.URL, "-drain-timeout-s", "30"})
	}()

	var base string
	deadline := time.Now().Add(10 * time.Second)
	for base == "" {
		if m := listenLine.FindStringSubmatch(capt.String()); m != nil {
			base = "http://" + m[1]
			break
		}
		select {
		case err := <-done:
			t.Fatalf("run exited before listening: %v\nlog:\n%s", err, capt.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("no listen line within deadline\nlog:\n%s", capt.String())
		}
		time.Sleep(5 * time.Millisecond)
	}

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status = %d", resp.StatusCode)
	}

	body := `{"base": {"duration_s": 5}, "seeds": [1, 2]}`
	resp, err = http.Post(base+"/v1/sweep", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("sweep request: %v", err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep status = %d body=%s", resp.StatusCode, raw)
	}
	var sb struct {
		Count    int `json:"count"`
		Outcomes []struct {
			Run   json.RawMessage `json:"run"`
			Error string          `json:"error"`
		} `json:"outcomes"`
	}
	if err := json.Unmarshal(raw, &sb); err != nil {
		t.Fatalf("sweep body not JSON: %v\n%s", err, raw)
	}
	if sb.Count != 2 || len(sb.Outcomes) != 2 {
		t.Fatalf("sweep body malformed: count=%d outcomes=%d", sb.Count, len(sb.Outcomes))
	}
	for i, r := range sb.Outcomes {
		if r.Error != "" || len(r.Run) == 0 {
			t.Fatalf("sweep point %d failed: error=%q run bytes=%d", i, r.Error, len(r.Run))
		}
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatalf("self-signal: %v", err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v after SIGTERM\nlog:\n%s", err, capt.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("run did not exit after SIGTERM\nlog:\n%s", capt.String())
	}
	if !strings.Contains(capt.String(), "drained") {
		t.Fatalf("drain line missing from log:\n%s", capt.String())
	}
	// The default concurrency (4 per worker) is resolved before logging,
	// so the startup line reports the bound in force, not the 0 sentinel.
	if !strings.Contains(capt.String(), "workers=1 concurrency=4 ") {
		t.Fatalf("startup line does not report the resolved concurrency:\n%s", capt.String())
	}
}

func TestRunFlagErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-no-such-flag"},
		{"-workers", "http://w", "-retries", "notanint"},
		{},                  // -workers required
		{"-workers", " , "}, // only empty entries
		{"-workers", "http://w", "-addr", "127.0.0.1:notaport"},
	} {
		if err := run(args); err == nil {
			t.Errorf("run(%q) = nil, want error", args)
		}
	}
}
