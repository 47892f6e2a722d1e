package main

// sizes are the fixed parameters of one scale. Nothing here is calibrated
// at run time: both sides of a comparison do identical work. README.md
// records the measurements that chose the full-scale values.
type sizes struct {
	name string

	// funcLaunchInstrs is the nominal retired instructions of each of
	// func_launch's 14 jobs; rtlEvalInstrs the same for rtl_eval.
	funcLaunchInstrs float64
	rtlEvalInstrs    float64

	// fleet_short_jobs: fleetJobs jobs of fleetInstrs each, cycling
	// through the 14 programs.
	fleetJobs   int
	fleetInstrs float64

	// ckpt_resume: four jobs of ckptInstrs, a snapshot every ckptEvery
	// retired instructions, cancelled once the last-declared job's
	// checkpoint pointer reports ckptCancelAt.
	ckptInstrs   float64
	ckptEvery    uint64
	ckptCancelAt uint64

	// build_churn: the chain root's overlay is churnFiles files of
	// churnFileBytes pseudo-random bytes each.
	churnFiles     int
	churnFileBytes int

	// Probes (traced run only).
	matrixInstrs   float64 // per cell of the tier x shape matrix
	matrixRepeats  int     // executions per cell; the median is reported
	casArtifacts   int     // artifacts per direct Publish/Restore
	casBytes       int     // bytes per artifact
	casSmallPuts   int     // 4 KiB Store.Put calls
	remoteBlobs    int     // blobs per loopback get/put
	remoteActions  int     // action round trips for the p50
	dispatchJobs   int     // no-op jobs through launcher.Run
	captureRepeats int     // checkpoint.Capture calls for the p50
}

const (
	// parallelism is the constant 2 everywhere: Jobs: 2, two single-slot
	// workers. It is the measurement host's nproc.
	parallelism = 2
	// churnLeaves is the number of sibling leaves under the 4-deep chain.
	churnLeaves = 8
)

var fullScale = sizes{
	name:             "full",
	funcLaunchInstrs: 14e6,
	rtlEvalInstrs:    1.3e6,
	fleetJobs:        48,
	fleetInstrs:      150e3,
	ckptInstrs:       40e6,
	ckptEvery:        1_000_000,
	ckptCancelAt:     20_000_000,
	churnFiles:       8,
	churnFileBytes:   512 << 10,
	matrixInstrs:     3e6,
	matrixRepeats:    3,
	casArtifacts:     8,
	casBytes:         256 << 10,
	casSmallPuts:     2000,
	remoteBlobs:      8,
	remoteActions:    200,
	dispatchJobs:     1000,
	captureRepeats:   5,
}

// smokeScale runs every code path in well under a second per workload;
// the package self-test uses it.
var smokeScale = sizes{
	name:             "smoke",
	funcLaunchInstrs: 60e3,
	rtlEvalInstrs:    30e3,
	fleetJobs:        6,
	fleetInstrs:      30e3,
	// ckpt_resume stays long enough that the kill reliably lands while the
	// last job is still simulating (about 50 ms of it remain).
	ckptInstrs:     12e6,
	ckptEvery:      400_000,
	ckptCancelAt:   2_000_000,
	churnFiles:     2,
	churnFileBytes: 16 << 10,
	matrixInstrs:   20e3,
	matrixRepeats:  1,
	casArtifacts:   2,
	casBytes:       16 << 10,
	casSmallPuts:   50,
	remoteBlobs:    2,
	remoteActions:  10,
	dispatchJobs:   50,
	captureRepeats: 2,
}

func scaleByName(name string) (sizes, bool) {
	for _, sz := range []sizes{fullScale, smokeScale} {
		if sz.name == name {
			return sz, true
		}
	}
	return sizes{}, false
}
