package obs

import (
	"fmt"
	"reflect"
)

// bind is the metrics table: it binds every CounterID and HistID to the
// Snapshot field it fills. A metric's exported name is written once, as
// its group's and its field's json tags; buildSnapshot (and with it
// Stats() and the JSON sampler) and WritePrometheus all derive from this
// table. The fields marked obs:"gauge" are derived from the counters in
// buildSnapshot and have no row. Adding a counter takes its constant,
// its field and its row here; the check in metrics panics at package
// init if any of the three is missing.
func (s *Snapshot) bind() (c [numCounters]*uint64, h [numHists]*HistStats) {
	c = [numCounters]*uint64{
		CEpochAdvances:     &s.Epoch.Advances,
		CEpochSyncs:        &s.Epoch.Syncs,
		CPersistQueued:     &s.Epoch.PersistQueued,
		CPersistBoundary:   &s.Epoch.PersistBoundary,
		CPersistOverflow:   &s.Epoch.PersistOverflow,
		CPersistWorker:     &s.Epoch.PersistWorker,
		CPersistDirect:     &s.Epoch.PersistDirect,
		CPersistDead:       &s.Epoch.PersistDead,
		CPersistBytes:      &s.Epoch.PersistBytes,
		CFreeQueued:        &s.Epoch.FreeQueued,
		CFreeReclaimed:     &s.Epoch.FreeReclaimed,
		CMindicatorSkips:   &s.Epoch.MindicatorSkips,
		CMindicatorScans:   &s.Epoch.MindicatorScans,
		CPendClampNegative: &s.Epoch.PendClampNegative,

		CWriteBacks:         &s.Device.WriteBacks,
		CWriteBackBytes:     &s.Device.WriteBackBytes,
		CWriteBackCoalesced: &s.Device.WriteBackCoalesced,
		CFences:             &s.Device.Fences,
		CDrains:             &s.Device.Drains,
		CReads:              &s.Device.Reads,
		CReadBytes:          &s.Device.ReadBytes,
		CCommits:            &s.Device.Commits,
		CCommitBytes:        &s.Device.CommitBytes,
		CCrashes:            &s.Device.Crashes,
		CCrashDiscarded:     &s.Device.CrashDiscarded,
		CCrashDiscBytes:     &s.Device.CrashDiscBytes,
		CCrashKept:          &s.Device.CrashKept,
		CCrashKeptBytes:     &s.Device.CrashKeptBytes,

		COps:              &s.Runtime.Ops,
		COpRetries:        &s.Runtime.OpRetries,
		CRecoveries:       &s.Runtime.Recoveries,
		CRecoveredBlocks:  &s.Runtime.RecoveredBlocks,
		CRecoveredLive:    &s.Runtime.RecoveredSurvivors,
		CRecoverySweepNs:  &s.Runtime.RecoverySweepNs,
		CRecoveryFilterNs: &s.Runtime.RecoveryFilterNs,
		CRecoveryInvalNs:  &s.Runtime.RecoveryInvalNs,
		CRecoveryBuildNs:  &s.Runtime.RecoveryRebuildNs,

		CAllocs:     &s.Alloc.Allocs,
		CAllocBytes: &s.Alloc.AllocBytes,
		CFrees:      &s.Alloc.Frees,
		CFreeBytes:  &s.Alloc.FreeBytes,
		CCarves:     &s.Alloc.Carves,

		CNetConns:        &s.Server.Conns,
		CNetConnsClosed:  &s.Server.ConnsClosed,
		CNetOpsGet:       &s.Server.OpsGet,
		CNetOpsSet:       &s.Server.OpsSet,
		CNetOpsDelete:    &s.Server.OpsDelete,
		CNetOpsTouch:     &s.Server.OpsTouch,
		CNetOpsAdmin:     &s.Server.OpsAdmin,
		CNetBytesIn:      &s.Server.BytesIn,
		CNetBytesOut:     &s.Server.BytesOut,
		CNetProtoErrors:  &s.Server.ProtoErrors,
		CNetAcksBuffered: &s.Server.AcksBuffered,
		CNetAcksSync:     &s.Server.AcksSync,
		CNetAcksEpoch:    &s.Server.AcksEpoch,
		CNetAcksAborted:  &s.Server.AcksAborted,
		CNetParkWaiters:  &s.Server.ParkWaiters,
		CNetCrashes:      &s.Server.Crashes,
		CNetFlushes:      &s.Server.Flushes,
		CNetParseAllocs:  &s.Server.ParseAllocs,

		CLoadOps:    &s.Load.Ops,
		CLoadReads:  &s.Load.Reads,
		CLoadWrites: &s.Load.Writes,
		CLoadErrors: &s.Load.Errors,
	}
	h = [numHists]*HistStats{
		HAdvanceNs:     &s.Latency.AdvanceNs,
		HWaitAllNs:     &s.Latency.WaitAllNs,
		HAdvLockWaitNs: &s.Latency.AdvLockWaitNs,
		HSyncNs:        &s.Latency.SyncNs,
		HFenceBatch:    &s.Latency.FenceBatch,
		HDrainBatch:    &s.Latency.DrainBatch,
		HCombineRatio:  &s.Latency.CombineRatio,
		HAckSyncNs:     &s.Latency.AckSyncNs,
		HAckEpochNs:    &s.Latency.AckEpochNs,
		HPipelineDepth: &s.Latency.PipelineDepth,
		HParkFanout:    &s.Latency.ParkFanout,
		HLoadNs:        &s.Latency.LoadNs,
		HFlushBatch:    &s.Latency.FlushBatch,
		HFlushBytes:    &s.Latency.FlushBytes,
	}
	return c, h
}

// metric is one exported stat field of a Snapshot.
type metric struct {
	name  string // montage_<group>_<field> from the two json tags, plus _total for a counter
	typ   string // the Prometheus TYPE: counter, gauge or histogram
	index []int  // the field's path in Snapshot
	hist  HistID // the histogram's id, for typ histogram
}

// metrics lists every stat field in Snapshot field order. Building it
// checks the table against the Snapshot type: every id must be bound to
// exactly one stat field, and every stat field (a uint64 or HistStats in
// a group struct) must be bound to exactly one id or carry the gauge
// mark. A mismatch is a bug in this package, so it panics.
var metrics = checkTable()

func checkTable() []metric {
	var probe Snapshot
	c, h := probe.bind()
	ids := map[any]int{} // each bound field's address -> its id
	for id, f := range c {
		ids[f] = id
	}
	for id, f := range h {
		ids[f] = id
	}
	if len(ids) != int(numCounters)+int(numHists) {
		panic("obs: two ids are bound to one Snapshot field")
	}
	var out []metric
	root := reflect.ValueOf(&probe).Elem()
	for i := 0; i < root.NumField(); i++ {
		group := root.Field(i)
		if group.Kind() != reflect.Struct {
			continue
		}
		for j := 0; j < group.NumField(); j++ {
			sf := group.Type().Field(j)
			m := metric{
				name:  "montage_" + root.Type().Field(i).Tag.Get("json") + "_" + sf.Tag.Get("json"),
				typ:   "counter",
				index: []int{i, j},
			}
			f := group.Field(j).Addr().Interface()
			id, ok := ids[f]
			delete(ids, f)
			if _, hist := f.(*HistStats); hist {
				m.typ, m.hist = "histogram", HistID(id)
			} else if sf.Tag.Get("obs") == "gauge" {
				m.typ, ok = "gauge", !ok
			}
			if !ok {
				panic(fmt.Sprintf("obs: %s needs exactly one counter, histogram or gauge mark", m.name))
			}
			if m.typ == "counter" {
				m.name += "_total"
			}
			out = append(out, m)
		}
	}
	if len(ids) > 0 {
		panic(fmt.Sprintf("obs: %d ids are unbound or bound outside the stat groups", len(ids)))
	}
	return out
}
