package main

import (
	"bytes"
	"encoding/json"
	"io"
	"log"
	"net/http"
	"os"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
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

// TestRunServesAndDrainsOnSignal boots the daemon on an ephemeral port,
// exercises /healthz and a real /v1/run, then delivers SIGTERM and
// asserts run() drains and returns nil.
func TestRunServesAndDrainsOnSignal(t *testing.T) {
	capt := &logCapture{}
	prev := log.Writer()
	log.SetOutput(capt)
	defer log.SetOutput(prev)

	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0", "-workers", "2", "-cache-mb", "4", "-drain-timeout-s", "30"})
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

	// The startup line reports the resolved pool sizes: -queue is unset,
	// so it defaults to 4× the two workers.
	if !strings.Contains(capt.String(), "workers=2 queue=8 ") {
		t.Fatalf("startup line does not report the resolved pool sizes:\n%s", capt.String())
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

	body := `{"duration_s": 10, "seed": 1}`
	resp, err = http.Post(base+"/v1/run", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("run request: %v", err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run status = %d body=%s", resp.StatusCode, raw)
	}
	var rb struct {
		Key    string          `json:"key"`
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(raw, &rb); err != nil {
		t.Fatalf("run body not JSON: %v\n%s", err, raw)
	}
	if len(rb.Key) != 64 || len(rb.Result) == 0 {
		t.Fatalf("run body malformed: key=%q result bytes=%d", rb.Key, len(rb.Result))
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
}

func TestRunFlagErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-no-such-flag"},
		{"-workers", "notanint"},
		{"-addr", "127.0.0.1:notaport"},
	} {
		if err := run(args); err == nil {
			t.Errorf("run(%q) = nil, want error", args)
		}
	}
}
