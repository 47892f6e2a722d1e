// Package install defines the simulator-connector configuration that
// `marshal install` emits (§III-E): a machine-readable description of the
// built artifacts that a cycle-exact RTL simulator consumes to run the
// workload. "FireMarshal provides the install command to convert the
// workload specification into a valid configuration for the RTL-level
// simulator. From there, users interact with the simulator normally."
//
// Connectors are pluggable (the paper's future work, §VI); the FireSim
// connector is built in and cmd/firesim consumes its output.
package install

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"firemarshal/internal/hostutil"
)

// JobConfig describes one simulated node.
type JobConfig struct {
	// Name is the node name (also its identity on the network fabric).
	Name string `json:"name"`
	// Bin is the absolute path of the boot binary artifact.
	Bin string `json:"bin"`
	// Img is the absolute path of the disk image ("" for bare-metal or
	// no-disk nodes).
	Img string `json:"img,omitempty"`
	// Outputs lists guest paths to extract after the run.
	Outputs []string `json:"outputs,omitempty"`
	// Devices is the SoC device profile the node's hardware config needs
	// (e.g. "pfa-rdma").
	Devices string `json:"devices,omitempty"`
	// ServerNode names the RDMA memory server for pfa-rdma nodes.
	ServerNode string `json:"serverNode,omitempty"`
	// Bare marks a bare-metal node, a memory server: servers run before the
	// OS nodes, and the regions each registers with its NIC land as its
	// output, from which the read-only fabric of pfa-rdma nodes is built.
	Bare bool `json:"bare,omitempty"`
}

// Config is the complete installed-workload description.
type Config struct {
	// Workload is the root workload name.
	Workload string `json:"workload"`
	// Jobs lists the nodes to simulate.
	Jobs []JobConfig `json:"jobs"`
	// PostRunHook is the host script to run over the output directory.
	PostRunHook string `json:"postRunHook,omitempty"`
	// PostRunHookDir is the working directory for the hook.
	PostRunHookDir string `json:"postRunHookDir,omitempty"`
	// RefDir allows `marshal test --manual` against the run outputs, and
	// Strip cleans the outputs before they are compared (testing.strip).
	RefDir string `json:"refDir,omitempty"`
	Strip  bool   `json:"strip,omitempty"`
}

// ConfigFileName is the file the connector writes.
const ConfigFileName = "config.json"

// Connector converts built artifacts into a simulator configuration.
// Implementations are registered by name, making simulator integration
// pluggable (§VI).
type Connector interface {
	// Name identifies the simulator ("firesim", "verilator", ...).
	Name() string
	// Install writes simulator configuration for cfg into destDir.
	Install(cfg *Config, destDir string) error
}

var connectors = map[string]Connector{}

// RegisterConnector adds a simulator connector.
func RegisterConnector(c Connector) error {
	if _, dup := connectors[c.Name()]; dup {
		return fmt.Errorf("install: duplicate connector %q", c.Name())
	}
	connectors[c.Name()] = c
	return nil
}

// GetConnector looks up a registered connector.
func GetConnector(name string) (Connector, error) {
	c, ok := connectors[name]
	if !ok {
		names := make([]string, 0, len(connectors))
		for n := range connectors {
			names = append(names, n)
		}
		return nil, fmt.Errorf("install: unknown simulator %q (registered: %v)", name, names)
	}
	return c, nil
}

// FireSimConnector is the built-in connector for the FireSim-role
// cycle-exact simulator (cmd/firesim).
type FireSimConnector struct{}

// Name implements Connector.
func (FireSimConnector) Name() string { return "firesim" }

// Install implements Connector: it writes config.json into destDir.
func (FireSimConnector) Install(cfg *Config, destDir string) error {
	if err := os.MkdirAll(destDir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(cfg, "", "  ")
	if err != nil {
		return err
	}
	return hostutil.WriteFileAtomic(filepath.Join(destDir, ConfigFileName), append(data, '\n'), 0o644)
}

// Load reads an installed configuration.
func Load(dir string) (*Config, error) {
	data, err := os.ReadFile(filepath.Join(dir, ConfigFileName))
	if err != nil {
		return nil, err
	}
	var cfg Config
	if err := json.Unmarshal(data, &cfg); err != nil {
		return nil, fmt.Errorf("install: bad config in %s: %w", dir, err)
	}
	if cfg.Workload == "" || len(cfg.Jobs) == 0 {
		return nil, fmt.Errorf("install: config in %s missing workload or jobs", dir)
	}
	return &cfg, nil
}

func init() {
	if err := RegisterConnector(FireSimConnector{}); err != nil {
		panic(err)
	}
}
