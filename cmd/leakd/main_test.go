package main

import (
	"bufio"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"
)

// runMainEnv makes the test binary act as leakd: TestMain runs main with
// the process arguments instead of the tests.
const runMainEnv = "LEAKD_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestSIGTERMAfterListeningDrains re-executes the test binary as leakd and
// sends SIGTERM the moment the "listening" line appears: the daemon must
// drain and exit 0, not die of the signal.
func TestSIGTERMAfterListeningDrains(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, "-store", t.TempDir(), "-addr", "127.0.0.1:0")
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	kill := time.AfterFunc(30*time.Second, func() { _ = cmd.Process.Kill() })
	defer kill.Stop()

	var lines []string
	signaled := false
	sc := bufio.NewScanner(stderr)
	for sc.Scan() {
		lines = append(lines, sc.Text())
		if !signaled && strings.Contains(sc.Text(), "listening on") {
			if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
				t.Fatal(err)
			}
			signaled = true
		}
	}
	err = cmd.Wait()
	log := strings.Join(lines, "\n")
	if !signaled {
		t.Fatalf("no listening line; leakd exited with %v:\n%s", err, log)
	}
	if err != nil {
		t.Fatalf("leakd exited with %v after SIGTERM, want a clean drain:\n%s", err, log)
	}
	if !strings.Contains(log, "leakd: drained") {
		t.Fatalf("no drained line after SIGTERM:\n%s", log)
	}
}
