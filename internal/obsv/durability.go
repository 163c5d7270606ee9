package obsv

import "fmt"

// DurabilityStats reports the write-ahead log and snapshot counters of a
// server running with -wal-dir. When durability is disabled the block is
// present with Enabled false and zero counters, so dashboards can key off
// one schema shape.
type DurabilityStats struct {
	// Enabled reports whether a write-ahead log is attached.
	Enabled bool `json:"enabled"`
	// WalEpoch is the epoch of the last durably committed batch.
	WalEpoch int64 `json:"wal_epoch"`
	// LastSnapshotEpoch is the newest base snapshot's epoch (0 = none).
	LastSnapshotEpoch int64 `json:"last_snapshot_epoch"`
	// FirstAvailableEpoch is the earliest batch epoch the log still holds
	// after retention pruning (0 when the log holds no batches). A replica
	// tailing from before it must bootstrap from the snapshot.
	FirstAvailableEpoch int64 `json:"first_available_epoch"`
	// BatchesLogged counts batches durably appended since startup.
	BatchesLogged int64 `json:"batches_logged"`
	// Fsyncs counts log fsyncs; under group commit one fsync acknowledges
	// many batches, so BatchesLogged/Fsyncs is the group-commit fan-in.
	Fsyncs int64 `json:"fsyncs"`
	// SnapshotsWritten counts base snapshots written since startup.
	SnapshotsWritten int64 `json:"snapshots_written"`
	// ReplayedBatches counts log records replayed during startup recovery.
	ReplayedBatches int64 `json:"replayed_batches"`
	// TruncatedTailRecords counts torn-tail truncations recovery performed —
	// nonzero after recovering from a crash mid-append.
	TruncatedTailRecords int64 `json:"truncated_tail_records"`
	// Segments is the current number of log segment files.
	Segments int `json:"segments"`
	// WalBytes is the committed size of all segment files.
	WalBytes int64 `json:"wal_bytes"`
	// GroupCommitWall histograms the append-to-acknowledge latency: the
	// time one batch waited for the fsync that made it durable.
	GroupCommitWall *Histogram `json:"group_commit_wall,omitempty"`
}

// DurabilityLines renders the durability block for the text table; empty
// when durability is disabled, matching the other optional blocks.
func DurabilityLines(d DurabilityStats) string {
	if !d.Enabled {
		return ""
	}
	s := fmt.Sprintf("wal: epoch %d, %d batches logged, %d fsyncs, %d segments (%d bytes), snapshot epoch %d (%d written)\n",
		d.WalEpoch, d.BatchesLogged, d.Fsyncs, d.Segments, d.WalBytes, d.LastSnapshotEpoch, d.SnapshotsWritten)
	if d.ReplayedBatches > 0 || d.TruncatedTailRecords > 0 {
		s += fmt.Sprintf("wal recovery: %d batches replayed, %d torn-tail truncations\n",
			d.ReplayedBatches, d.TruncatedTailRecords)
	}
	if h := d.GroupCommitWall; h != nil && h.Count > 0 {
		s += fmt.Sprintf("wal commit wall: mean %s, p99 %s, max %s\n",
			FormatDuration(h.Mean()), FormatDuration(h.Quantile(0.99)), FormatDuration(h.Max))
	}
	return s
}
