package core

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"

	"firemarshal/internal/boards"
	"firemarshal/internal/dag"
	"firemarshal/internal/firmware"
	"firemarshal/internal/fsimg"
	"firemarshal/internal/guestos"
	"firemarshal/internal/hostutil"
	"firemarshal/internal/kconfig"
	"firemarshal/internal/kernel"
	"firemarshal/internal/sim/funcsim"
	"firemarshal/internal/spec"
)

// BuildOpts controls a build.
type BuildOpts struct {
	// NoDisk additionally produces the initramfs-embedded boot binary
	// (`marshal build --no-disk`, Fig. 3).
	NoDisk bool
	// Jobs bounds how many build tasks run concurrently (the dag engine's
	// worker count). <=0 means NumCPU. Per-job build targets are claimed
	// concurrently; shared parents still build exactly once (the engine
	// schedules each task after its dependencies and never re-runs one).
	Jobs int
}

// BuildResult reports the artifacts of one target.
type BuildResult struct {
	Target    string
	Bin       string // boot binary path ("" for image-only targets)
	Img       string // disk image path ("" for bare-metal targets)
	NoDiskBin string // set when BuildOpts.NoDisk
}

// Build constructs the boot binary and disk image for a workload and all of
// its jobs (§III-B), using the dependency tracker to skip up-to-date steps.
func (m *Marshal) Build(nameOrPath string, opts BuildOpts) ([]BuildResult, error) {
	w, err := m.Loader.Load(nameOrPath)
	if err != nil {
		return nil, err
	}
	return m.BuildWorkload(w, opts)
}

// BuildWorkload builds an already-resolved workload. Commands that both
// build and launch (Launch, Test) load the spec once and pass the same
// resolved workload to every phase, so a workload file edited mid-command
// cannot produce a run that mismatches its artifacts.
func (m *Marshal) BuildWorkload(w *spec.Workload, opts BuildOpts) ([]BuildResult, error) {
	eng, err := dag.NewEngine(m.stateDB())
	if err != nil {
		return nil, err
	}
	cache, err := m.Cache()
	if err != nil {
		return nil, err
	}
	eng.SetCache(cache)
	// Builds report dag_* metrics and, inside a launch, nest their
	// per-node spans under the run's "build" span.
	buildSpan := m.runSpan.Child("build")
	defer buildSpan.End()
	eng.SetObs(m.Obs, buildSpan)
	b := &builder{m: m, eng: eng, opts: opts, registered: map[string]bool{}, artifacts: map[string]*chainArtifacts{}}

	var results []BuildResult
	var finalTasks []string
	for _, tgt := range Targets(w) {
		arts, err := b.register(tgt.Workload, tgt.Name)
		if err != nil {
			return nil, err
		}
		res := BuildResult{Target: tgt.Name}
		if arts.binTask != "" {
			res.Bin = m.BinPath(tgt.Name)
			finalTasks = append(finalTasks, arts.binTask)
		}
		if arts.imgTask != "" {
			res.Img = m.ImgPath(tgt.Name)
			finalTasks = append(finalTasks, arts.imgTask)
		}
		if opts.NoDisk && arts.noDiskTask != "" {
			res.NoDiskBin = m.NoDiskBinPath(tgt.Name)
			finalTasks = append(finalTasks, arts.noDiskTask)
		}
		results = append(results, res)
	}
	workers := opts.Jobs
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if err := eng.RunMany(finalTasks, workers); err != nil {
		return nil, err
	}
	m.LastBuildStats = BuildStats{
		Executed: sortedUnique(eng.Executed),
		Skipped:  sortedUnique(eng.Skipped),
		Restored: sortedUnique(eng.Restored),
		Cache:    cache.Stats(),
	}
	m.logf("built %s (%d tasks run, %d restored from cache, %d up to date)",
		w.Name, len(m.LastBuildStats.Executed), len(m.LastBuildStats.Restored), len(m.LastBuildStats.Skipped))
	return results, nil
}

// chainArtifacts records the task names registered for one workload.
type chainArtifacts struct {
	hostTask   string
	binTask    string // "" when the workload has no boot binary
	imgTask    string // "" when the workload has no disk image
	noDiskTask string
	artifact   string // artifact (target) name
}

type builder struct {
	m          *Marshal
	eng        *dag.Engine
	opts       BuildOpts
	registered map[string]bool
	artifacts  map[string]*chainArtifacts
}

// register sets up build tasks for w (and, recursively, its parents) under
// the given artifact name. §III-B.1 step 2: "The build process ... is
// performed recursively to produce filesystem images for all parents."
func (b *builder) register(w *spec.Workload, artifact string) (*chainArtifacts, error) {
	if arts, ok := b.artifacts[artifact]; ok {
		return arts, nil
	}
	var parentArts *chainArtifacts
	if levels := w.Effective.Levels; len(levels) > 1 {
		p := levels[len(levels)-2]
		pa, err := b.register(p, p.Name)
		if err != nil {
			return nil, err
		}
		parentArts = pa
	}
	arts := &chainArtifacts{artifact: artifact}
	b.artifacts[artifact] = arts

	specHash := w.Hash()

	// --- host-init (§III-B.1 step 3) ---
	var hostDeps []string
	if w.HostInit != "" {
		arts.hostTask = "host:" + artifact
		script := w.HostPath(firstField(w.HostInit))
		task := &dag.Task{
			Name:      arts.hostTask,
			FileDeps:  []string{script},
			ValueDeps: map[string]string{"spec": specHash, "hostinit": w.HostInit},
			Action: func() error {
				b.m.logf("running host-init for %s", artifact)
				_, err := hostutil.RunHostScript(w.HostInit, w.Dir)
				return err
			},
		}
		if err := b.eng.Register(task); err != nil {
			return nil, err
		}
		hostDeps = append(hostDeps, arts.hostTask)
	}

	// --- boot binary (§III-B.1 step 4) ---
	if err := b.registerBin(w, artifact, arts, parentArts, specHash, hostDeps); err != nil {
		return nil, err
	}

	// --- disk image (§III-B.1 step 5) ---
	if err := b.registerImg(w, artifact, arts, parentArts, specHash, hostDeps); err != nil {
		return nil, err
	}

	// --- initramfs-embedded build (§III-B.1 step 6) ---
	if b.opts.NoDisk && arts.imgTask != "" && arts.binTask != "" {
		arts.noDiskTask = "nodisk:" + artifact
		task := &dag.Task{
			Name:      arts.noDiskTask,
			TaskDeps:  []string{arts.imgTask, arts.binTask},
			FileDeps:  []string{b.m.ImgPath(artifact), b.m.BinPath(artifact)},
			ValueDeps: map[string]string{"spec": specHash},
			Targets:   []string{b.m.NoDiskBinPath(artifact)},
			Action:    func() error { return b.buildNoDisk(w, artifact) },
		}
		if err := b.eng.Register(task); err != nil {
			return nil, err
		}
	}
	return arts, nil
}

func (b *builder) registerBin(w *spec.Workload, artifact string, arts, parentArts *chainArtifacts, specHash string, hostDeps []string) error {
	distro := w.Effective.Distro
	hardBin := w.Bin != ""
	parentHasBin := parentArts != nil && parentArts.binTask != ""
	if distro == "bare" && !hardBin {
		if !parentHasBin {
			// A pure bare-metal base has no binary of its own.
			return nil
		}
	}

	arts.binTask = "bin:" + artifact
	task := &dag.Task{
		Name:      arts.binTask,
		TaskDeps:  append([]string(nil), hostDeps...),
		ValueDeps: map[string]string{"spec": specHash},
		Targets:   []string{b.m.BinPath(artifact)},
	}
	switch {
	case hardBin:
		// Hard-coded boot binary: the remaining steps are skipped.
		binPath := w.HostPath(w.Bin)
		// The bin file may be generated by host-init, so it is hashed as a
		// dependency only if host-init is absent.
		if w.HostInit == "" {
			task.FileDeps = append(task.FileDeps, binPath)
		}
		task.Action = func() error {
			data, err := os.ReadFile(binPath)
			if err != nil {
				return fmt.Errorf("core: hard-coded bin for %s: %w", artifact, err)
			}
			if _, err := firmware.Decode(data); err != nil {
				return fmt.Errorf("core: %s: %w", binPath, err)
			}
			return hostutil.WriteFileAtomic(b.m.BinPath(artifact), data, 0o644)
		}
	case !binInputsDiffer(w) && parentHasBin:
		// "If the child workload would not generate a different binary
		// than its parent, FireMarshal simply makes a copy of the parent's
		// binary and skips this step." (§III-B.1 step 4) The copy is a hard
		// link where it can be: artifacts are replaced, never rewritten.
		parentBin := b.m.BinPath(parentArts.artifact)
		task.TaskDeps = append(task.TaskDeps, parentArts.binTask)
		task.FileDeps = append(task.FileDeps, parentBin)
		task.Action = func() error {
			b.m.logf("copying parent boot binary for %s", artifact)
			return hostutil.LinkOrCopy(parentBin, b.m.BinPath(artifact))
		}
	default:
		// Full kernel + firmware build. Module dirs go in name order: the
		// key hashes deps by position.
		eff := w.Effective
		task.FileDeps = append(task.FileDeps, eff.ConfigFragments...)
		names := make([]string, 0, len(eff.Modules))
		for name := range eff.Modules {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			task.FileDeps = append(task.FileDeps, eff.Modules[name])
		}
		if eff.LinuxSource != "" {
			task.FileDeps = append(task.FileDeps, eff.LinuxSource)
		}
		task.Action = func() error {
			b.m.logf("building boot binary for %s", artifact)
			bin, err := b.buildBootBinary(w, nil)
			if err != nil {
				return err
			}
			data, err := bin.Encode()
			if err != nil {
				return err
			}
			return hostutil.WriteFileAtomic(b.m.BinPath(artifact), data, 0o644)
		}
	}
	return b.eng.Register(task)
}

// binInputsDiffer reports whether w changes any boot-binary input relative
// to its parent.
func binInputsDiffer(w *spec.Workload) bool {
	return w.Linux != nil || w.Firmware != nil
}

// buildBootBinary performs kernel configuration, module build, initramfs
// generation, kernel compilation, and firmware linking (§III-B.1 steps
// 4a-4e). extraInitramfs embeds a rootfs for --no-disk builds.
func (b *builder) buildBootBinary(w *spec.Workload, extraInitramfs *fsimg.FS) (*firmware.BootBinary, error) {
	eff := w.Effective
	var frags []*kconfig.Config
	for _, fragPath := range eff.ConfigFragments {
		data, err := os.ReadFile(fragPath)
		if err != nil {
			return nil, fmt.Errorf("core: reading config fragment: %w", err)
		}
		frag, err := kconfig.Parse(string(data))
		if err != nil {
			return nil, fmt.Errorf("core: %s: %w", fragPath, err)
		}
		frags = append(frags, frag)
	}
	kimg, err := kernel.Build(kernel.BuildOpts{
		SourceDir:      eff.LinuxSource,
		Fragments:      frags,
		Modules:        eff.Modules,
		ExtraInitramfs: extraInitramfs,
	})
	if err != nil {
		return nil, err
	}
	return firmware.Build(eff.FirmwareKind, eff.FirmwareArgs, kimg)
}

func (b *builder) registerImg(w *spec.Workload, artifact string, arts, parentArts *chainArtifacts, specHash string, hostDeps []string) error {
	if w.Effective.Distro == "bare" && w.Img == "" {
		return nil // bare-metal workloads have no disk image
	}
	arts.imgTask = "img:" + artifact
	task := &dag.Task{
		Name:      arts.imgTask,
		TaskDeps:  append([]string(nil), hostDeps...),
		ValueDeps: map[string]string{"spec": specHash},
		Targets:   []string{b.m.ImgPath(artifact)},
	}
	if w.Overlay != "" {
		task.FileDeps = append(task.FileDeps, w.HostPath(w.Overlay))
	}
	for _, fp := range w.Files {
		task.FileDeps = append(task.FileDeps, w.HostPath(fp.Src))
	}
	if w.Run != "" {
		task.FileDeps = append(task.FileDeps, w.HostPath(w.Run))
	}
	if w.GuestInit != "" {
		task.FileDeps = append(task.FileDeps, w.HostPath(w.GuestInit))
	}
	if w.Img != "" && w.HostInit == "" {
		task.FileDeps = append(task.FileDeps, w.HostPath(w.Img))
	}
	if parentArts != nil && parentArts.imgTask != "" {
		task.TaskDeps = append(task.TaskDeps, parentArts.imgTask)
		task.FileDeps = append(task.FileDeps, b.m.ImgPath(parentArts.artifact))
	}
	// guest-init boots the image with this workload's kernel.
	if w.GuestInit != "" && arts.binTask != "" {
		task.TaskDeps = append(task.TaskDeps, arts.binTask)
	}
	task.Action = func() error {
		b.m.logf("building image for %s (%s)", artifact, describeChain(w))
		fs, err := b.buildImage(w, artifact, parentArts)
		if err != nil {
			return err
		}
		return hostutil.WriteFileAtomic(b.m.ImgPath(artifact), fs.Encode(), 0o644)
	}
	return b.eng.Register(task)
}

// buildImage produces the workload's root filesystem (§III-B.1 step 5).
func (b *builder) buildImage(w *spec.Workload, artifact string, parentArts *chainArtifacts) (*fsimg.FS, error) {
	var fs *fsimg.FS
	switch {
	case w.Img != "":
		// Hard-coded disk image: remaining steps are skipped.
		data, err := os.ReadFile(w.HostPath(w.Img))
		if err != nil {
			return nil, fmt.Errorf("core: hard-coded img: %w", err)
		}
		return fsimg.Decode(data)
	case parentArts != nil && parentArts.imgTask != "":
		// Step 5a: copy the parent's image.
		data, err := os.ReadFile(b.m.ImgPath(parentArts.artifact))
		if err != nil {
			return nil, err
		}
		parentFS, err := fsimg.Decode(data)
		if err != nil {
			return nil, fmt.Errorf("core: parent image: %w", err)
		}
		fs = parentFS.Clone()
	default:
		// Root of the chain: a builtin distribution base.
		base, err := boards.BaseImage(w.Effective.Distro)
		if err != nil {
			return nil, fmt.Errorf("core: workload %q: %w", w.Name, err)
		}
		fs = base
	}

	if sizeStr := w.Effective.RootfsSize; sizeStr != "" {
		size, err := spec.ParseRootfsSize(sizeStr)
		if err != nil {
			return nil, err
		}
		fs.SizeLimit = size
	}

	// Step 5a (continued): apply overlay and files.
	if w.Overlay != "" {
		if err := applyHostDir(fs, w.HostPath(w.Overlay), "/"); err != nil {
			return nil, fmt.Errorf("core: overlay: %w", err)
		}
	}
	for _, fp := range w.Files {
		if err := applyHostPath(fs, w.HostPath(fp.Src), fp.Dst); err != nil {
			return nil, fmt.Errorf("core: files: %w", err)
		}
	}

	// Step 5c: configure the boot command.
	if err := bakeRunScript(fs, w); err != nil {
		return nil, err
	}

	// Step 5b: guest-init — boot the half-built workload in QEMU and run
	// the script exactly once.
	if w.GuestInit != "" {
		script, err := os.ReadFile(w.HostPath(w.GuestInit))
		if err != nil {
			return nil, fmt.Errorf("core: guest-init: %w", err)
		}
		if err := b.runGuestInit(w, artifact, fs, string(script)); err != nil {
			return nil, err
		}
	}
	return fs, nil
}

// bakeRunScript installs the run/command script into the image's init
// system. Without either option the parent's baked script (if any) stays.
func bakeRunScript(fs *fsimg.FS, w *spec.Workload) error {
	var content string
	switch {
	case w.Command != "":
		content = w.Command + "\n"
	case w.Run != "":
		data, err := os.ReadFile(w.HostPath(w.Run))
		if err != nil {
			return fmt.Errorf("core: run script: %w", err)
		}
		content = string(data)
	default:
		return nil
	}
	if err := fs.WriteFile(guestos.RunScriptPath, []byte(content), 0o755); err != nil {
		return err
	}
	// On the Fedora base the hook is a systemd unit; on Buildroot it is an
	// init script. Both point at the same baked script.
	if w.Effective.Distro == "fedora" {
		unit := "[Unit]\nDescription=FireMarshal workload\n[Service]\nExecStart=" + guestos.RunScriptPath + "\n"
		return fs.WriteFile("/etc/systemd/system/marshal.service", []byte(unit), 0o644)
	}
	return nil
}

// runGuestInit boots the image in functional simulation with the guest-init
// script as the run target, persisting the resulting filesystem.
func (b *builder) runGuestInit(w *spec.Workload, artifact string, fs *fsimg.FS, script string) error {
	b.m.logf("running guest-init for %s in QEMU", w.Name)
	binData, err := os.ReadFile(b.m.BinPath(artifact))
	if err != nil {
		return fmt.Errorf("core: guest-init needs the boot binary: %w", err)
	}
	boot, err := firmware.Decode(binData)
	if err != nil {
		return err
	}
	platform := funcsim.New(funcsim.Config{Variant: "qemu"})
	var console bytes.Buffer
	res, err := guestos.Boot(guestos.BootOpts{
		Boot:        boot,
		Disk:        fs,
		Platform:    platform,
		Console:     &console,
		PkgRepo:     guestos.DefaultRepo(),
		OverrideRun: script,
	})
	if err != nil {
		return fmt.Errorf("core: guest-init boot: %w (console: %s)", err, console.String())
	}
	if res.ExitCode != 0 {
		return fmt.Errorf("core: guest-init exited with %d (console: %s)", res.ExitCode, console.String())
	}
	return nil
}

// buildNoDisk rebuilds the kernel with the finished disk image embedded as
// its initramfs payload (§III-B.1 step 6).
func (b *builder) buildNoDisk(w *spec.Workload, artifact string) error {
	b.m.logf("building no-disk boot binary for %s", artifact)
	imgData, err := os.ReadFile(b.m.ImgPath(artifact))
	if err != nil {
		return err
	}
	rootfs, err := fsimg.Decode(imgData)
	if err != nil {
		return err
	}
	bin, err := b.buildBootBinary(w, rootfs)
	if err != nil {
		return err
	}
	data, err := bin.Encode()
	if err != nil {
		return err
	}
	return hostutil.WriteFileAtomic(b.m.NoDiskBinPath(artifact), data, 0o644)
}

// applyHostDir copies a host directory tree into the image under dst,
// preserving execute bits.
func applyHostDir(fs *fsimg.FS, hostDir, dst string) error {
	info, err := os.Stat(hostDir)
	if err != nil {
		return err
	}
	if !info.IsDir() {
		return applyHostPath(fs, hostDir, filepath.Join(dst, filepath.Base(hostDir)))
	}
	return filepath.Walk(hostDir, func(path string, fi os.FileInfo, werr error) error {
		if werr != nil {
			return werr
		}
		rel, err := filepath.Rel(hostDir, path)
		if err != nil {
			return err
		}
		guestPath := filepath.ToSlash(filepath.Join(dst, rel))
		if fi.IsDir() {
			return fs.MkdirAll(guestPath, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		mode := uint32(0o644)
		if fi.Mode()&0o111 != 0 {
			mode = 0o755
		}
		return fs.WriteFile(guestPath, data, mode)
	})
}

// applyHostPath copies one host file (or directory) to a guest path.
func applyHostPath(fs *fsimg.FS, hostPath, dst string) error {
	info, err := os.Stat(hostPath)
	if err != nil {
		return err
	}
	if info.IsDir() {
		return applyHostDir(fs, hostPath, dst)
	}
	data, err := os.ReadFile(hostPath)
	if err != nil {
		return err
	}
	mode := uint32(0o644)
	if info.Mode()&0o111 != 0 {
		mode = 0o755
	}
	return fs.WriteFile(dst, data, mode)
}

func firstField(s string) string {
	fields := []rune{}
	for _, r := range s {
		if r == ' ' || r == '\t' {
			break
		}
		fields = append(fields, r)
	}
	return string(fields)
}
