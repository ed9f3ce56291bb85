package cliflags

import (
	"flag"
	"testing"
	"time"
)

func TestRegisterDefaultsAndParse(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	c := Register(fs, 3)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if c.Workers != 3 || c.Log != "text" {
		t.Fatalf("unexpected defaults: %+v", c)
	}

	fs = flag.NewFlagSet("test", flag.ContinueOnError)
	c = Register(fs, 0)
	err := fs.Parse([]string{
		"-ckpt-interval", "5000", "-workers", "8",
		"-journal", "/tmp/j", "-resume", "-progress",
		"-metrics-addr", "localhost:9090", "-forensics", "-log", "json",
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.CkptInterval != 5000 || c.Workers != 8 ||
		c.Journal != "/tmp/j" || !c.Resume || !c.Progress ||
		c.MetricsAddr != "localhost:9090" || !c.Forensics || c.Log != "json" {
		t.Fatalf("parsed values wrong: %+v", c)
	}
}

func TestStartProfilesNoop(t *testing.T) {
	c := &Common{}
	stop, err := c.StartProfiles(func(string) { t.Error("unexpected error log") })
	if err != nil {
		t.Fatal(err)
	}
	stop()
	stop() // idempotent
}

func TestRegisterServerDefaults(t *testing.T) {
	fs := flag.NewFlagSet("avgid", flag.ContinueOnError)
	s := RegisterServer(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if s.Addr == "" || s.Journal == "" || s.Log != "text" {
		t.Errorf("server defaults: %+v", s)
	}
	if s.DrainTimeout <= 0 {
		t.Errorf("drain timeout default %v must be positive", s.DrainTimeout)
	}
	if err := fs.Parse([]string{"-addr", ":0", "-journal", "", "-tenant-workers", "3", "-drain-timeout", "5s"}); err != nil {
		t.Fatal(err)
	}
	if s.Addr != ":0" || s.Journal != "" || s.TenantWorkers != 3 || s.DrainTimeout != 5*time.Second {
		t.Errorf("server flags not parsed: %+v", s)
	}
}
