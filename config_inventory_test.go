package corona_test

import (
	"os"
	"reflect"
	"strings"
	"testing"

	"corona"
	"corona/client"
	"corona/internal/chaos"
	"corona/internal/core"
	"corona/internal/experiments"
	"corona/internal/netwire"
	"corona/internal/store"
	"corona/internal/webgateway"
)

// TestConfigInventory pins the configuration surface: every exported
// field, with its type, of the structs a program configures Corona
// through. The golden file lists each struct's name, then one line per
// field, so a knob added to or removed from any of them shows up as a
// diff of testdata/config_inventory.txt.
func TestConfigInventory(t *testing.T) {
	structs := []any{
		corona.Options{},
		corona.LiveConfig{},
		client.Options{},
		core.Config{},
		core.PolicyConfig{},
		store.Options{},
		webgateway.Config{},
		experiments.Options{},
		chaos.Config{},
		netwire.Transport{},
	}
	var got []string
	for _, s := range structs {
		typ := reflect.TypeOf(s)
		got = append(got, typ.String())
		for i := 0; i < typ.NumField(); i++ {
			if f := typ.Field(i); f.IsExported() {
				got = append(got, typ.String()+"."+f.Name+" "+f.Type.String())
			}
		}
	}
	golden, err := os.ReadFile("testdata/config_inventory.txt")
	if err != nil {
		t.Fatal(err)
	}
	if want := strings.TrimSpace(string(golden)); strings.Join(got, "\n") != want {
		t.Errorf("configuration surface differs from testdata/config_inventory.txt; this tree's inventory:\n%s", strings.Join(got, "\n"))
	}
}
