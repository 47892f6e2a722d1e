package sim

// A TimingModel prices the instructions of a timed run (RunTimed). The
// reference loop, RunBatch, charges it one full Event per instruction. The
// predecoded loop charges only its slow steps that way; for the
// instructions its switch retires it writes the model's TimedLog and has
// the model Replay it wherever it publishes m.Now: at every chunk end,
// before every slow step and so on every return. A snapshot, a Stats read
// and a cycle read therefore always see a model with nothing pending.
type TimingModel interface {
	// ChargeEvent returns the cycles of one retired instruction from its
	// full Event. It must not retain ev.
	ChargeEvent(ev *Event) uint64
	// Log returns the model's log, the same one on every call.
	Log() *TimedLog
	// Replay charges what the log holds — its Static sum, its records in
	// retirement order, and its trailing same-line fetches — empties it,
	// and returns the cycles that makes.
	Replay() uint64
}

// RecKind says what a TimedRec logged; as an op's Kind, the zero value
// logs nothing beyond the op's fetch.
type RecKind uint8

const (
	// RecFetch is a fetch from a new line: Addr is the pc, N the fetches
	// on the previous line since that line's record (or since the last
	// replay).
	RecFetch RecKind = iota + 1
	// RecBranch is a conditional branch: Addr is the pc, N is 1 if it was
	// taken.
	RecBranch
	// RecMem is a load or store to RAM: Addr is the address.
	RecMem
)

// TimedRec is one entry of a TimedLog.
type TimedRec struct {
	Addr uint64
	N    uint32
	Kind RecKind
}

// TimedLog is what the predecoded loop writes for a timing model instead
// of calling it per instruction. The model fills the tables once; the
// loop adds each retired op's Cost to Static, counts a fetch on the line
// of the previous one in Hits and logs any other fetch, and logs each op
// whose Kind is RecBranch or RecMem. An instruction logs at most two
// records and the log is replayed at least every timedBatch
// instructions, so Recs is a fixed array.
type TimedLog struct {
	// Cost is each op's static cycles, in the model's unit.
	Cost [256]uint64
	// Kind is the record each op logs beyond its fetch.
	Kind [256]RecKind
	// LineMask is the instruction-cache line size less one: a fetch whose
	// pc&^LineMask equals Line is only counted. A model that reads no
	// fetches sets ^0, so every pc is on line 0.
	LineMask uint64

	// Static is the Cost of the instructions logged since the last replay.
	Static uint64
	// Line is pc&^LineMask of the latest fetch; a model whose fetch state
	// was reset sets a line no pc is on (^0).
	Line uint64
	// Hits counts the fetches on Line since its record or the last replay.
	Hits uint64
	// N is the number of records in Recs.
	N    int
	Recs *[2 * timedBatch]TimedRec

	// model is the TimingModel whose log this is, set by RunTimed.
	model TimingModel
}

// NewTimedLog returns an empty log with room for a batch's records and
// no fetch logged yet, for an instruction cache of lineBytes-byte lines.
func NewTimedLog(lineBytes int) *TimedLog {
	return &TimedLog{LineMask: uint64(lineBytes) - 1, Line: ^uint64(0), Recs: new([2 * timedBatch]TimedRec)}
}

// Reset empties the log once a model has replayed it.
func (l *TimedLog) Reset() { l.Static, l.Hits, l.N = 0, 0, 0 }
