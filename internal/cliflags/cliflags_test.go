package cliflags

import (
	"flag"
	"reflect"
	"strings"
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

// TestDistFlagsOnlyOnAvgi pins which tools take the distributed-fleet
// flags: the shared and server flag sets define none, and RegisterDist
// (the avgi study harness) defines exactly -dist-role, -dist-owner and
// -lease-ttl.
func TestDistFlagsOnlyOnAvgi(t *testing.T) {
	distFlag := func(name string) bool {
		return strings.HasPrefix(name, "dist-") || name == "coordinator" || name == "lease-ttl"
	}
	for tool, register := range map[string]func(*flag.FlagSet){
		"shared": func(fs *flag.FlagSet) { Register(fs, 1) },
		"avgid":  func(fs *flag.FlagSet) { RegisterServer(fs) },
	} {
		fs := flag.NewFlagSet(tool, flag.ContinueOnError)
		register(fs)
		fs.VisitAll(func(f *flag.Flag) {
			if distFlag(f.Name) {
				t.Errorf("%s flag set defines -%s", tool, f.Name)
			}
		})
	}

	fs := flag.NewFlagSet("avgi", flag.ContinueOnError)
	Register(fs, 0)
	d := RegisterDist(fs)
	var got []string
	fs.VisitAll(func(f *flag.Flag) {
		if distFlag(f.Name) {
			got = append(got, f.Name)
		}
	})
	if want := []string{"dist-owner", "dist-role", "lease-ttl"}; !reflect.DeepEqual(got, want) {
		t.Errorf("avgi distributed flags %v, want %v", got, want)
	}
	if err := fs.Parse([]string{"-dist-role", "worker", "-dist-owner", "n1", "-lease-ttl", "2s"}); err != nil {
		t.Fatal(err)
	}
	if d.Role != "worker" || d.Owner != "n1" || d.LeaseTTL != 2*time.Second {
		t.Errorf("distributed flags not parsed: %+v", d)
	}
	if err := d.Validate(""); err == nil {
		t.Error("-dist-role=worker without -journal must be rejected")
	}
	if err := d.Validate("/tmp/j"); err != nil {
		t.Errorf("-dist-role=worker with -journal: %v", err)
	}
	d.Role = "coordinator"
	if err := d.Validate("/tmp/j"); err == nil {
		t.Error("-dist-role=coordinator must be rejected")
	}
}
