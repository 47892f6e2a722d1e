package core

import (
	"fmt"
	"os"
	"path/filepath"

	"firemarshal/internal/install"
	"firemarshal/internal/spec"
)

// InstallOpts controls the install command (§III-E).
type InstallOpts struct {
	// Simulator selects the connector (default "firesim").
	Simulator string
	// NoDisk installs the initramfs-embedded binaries.
	NoDisk bool
}

// Install builds the workload and writes a cycle-exact simulator
// configuration referencing the exact artifact files that functional
// simulation used — nothing is rebuilt or modified between launch and
// install (§III-E).
func (m *Marshal) Install(nameOrPath string, opts InstallOpts) (string, error) {
	if opts.Simulator == "" {
		opts.Simulator = "firesim"
	}
	conn, err := install.GetConnector(opts.Simulator)
	if err != nil {
		return "", err
	}
	w, err := m.Loader.Load(nameOrPath)
	if err != nil {
		return "", err
	}
	// Build the workload loaded above — a spec edited mid-command cannot
	// desynchronize the installed config from its artifacts.
	built, err := m.BuildWorkload(w, BuildOpts{NoDisk: opts.NoDisk})
	if err != nil {
		return "", err
	}

	cfg := &install.Config{Workload: w.Name}

	targets := Targets(w)
	if len(w.Jobs) > 0 {
		targets = targets[1:] // jobs are the simulated nodes
	}

	// A bare-metal job acts as the RDMA memory server for PFA nodes.
	serverNode := ""
	for _, tgt := range targets {
		if tgt.Workload.Effective.Distro == "bare" {
			serverNode = tgt.Name
			break
		}
	}

	for _, tgt := range targets {
		job, err := m.jobConfig(tgt, built, serverNode)
		if err != nil {
			return "", err
		}
		cfg.Jobs = append(cfg.Jobs, *job)
	}

	cfg.PostRunHook, cfg.PostRunHookDir = w.Effective.PostRunHook.Line, w.Effective.PostRunHook.Dir
	if t := w.Effective.Testing; t != nil && t.RefDir != "" {
		cfg.RefDir, cfg.Strip = t.RefDir, t.Strip
	}

	destDir := m.InstallDir(w.Name)
	if err := conn.Install(cfg, destDir); err != nil {
		return "", err
	}
	m.logf("installed %s for %s at %s", w.Name, opts.Simulator, destDir)
	return destDir, nil
}

func (m *Marshal) jobConfig(tgt Target, built []BuildResult, serverNode string) (*install.JobConfig, error) {
	w := tgt.Workload
	binPath, imgPath := m.bootFiles(tgt, built)
	absBin, err := filepath.Abs(binPath)
	if err != nil {
		return nil, err
	}
	if _, err := os.Stat(binPath); err != nil {
		return nil, fmt.Errorf("core: job %s has no boot binary: %w", tgt.Name, err)
	}
	job := &install.JobConfig{
		Name:    tgt.Name,
		Bin:     absBin,
		Outputs: w.Effective.Outputs,
		Bare:    w.Effective.Distro == "bare",
	}
	if imgPath != "" && fileExists(imgPath) {
		if job.Img, err = filepath.Abs(imgPath); err != nil {
			return nil, err
		}
	}
	job.Devices = rtlDeviceProfile(w, serverNode)
	if job.Devices == "pfa-rdma" {
		job.ServerNode = serverNode
	}
	return job, nil
}

// rtlDeviceProfile translates the workload's functional golden-model
// profile (the `spike` option) into the RTL hardware configuration: a
// PFA-equipped SoC fetches over the real (simulated) network when a memory
// server node exists, and falls back to the golden model otherwise.
func rtlDeviceProfile(w *spec.Workload, serverNode string) string {
	switch w.Effective.Spike {
	case "pfa-spike", "pfa-golden":
		if serverNode != "" {
			return "pfa-rdma"
		}
		return "pfa-golden"
	case "gemmini", "gemmini-spike":
		return "gemmini"
	default:
		return ""
	}
}

func fileExists(p string) bool {
	_, err := os.Stat(p)
	return err == nil
}
