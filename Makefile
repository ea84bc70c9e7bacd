GO ?= go

.PHONY: build test race vet lint-dead bench bench-smoke serve-smoke conns-smoke chaos-smoke clean

build:
	$(GO) build ./...

# Besides the unit tests: the montagedebug build (its debug assertions
# in epoch, core and pds) is vetted and tested, and every examples/
# main runs, each checking its own output and exiting non-zero on a
# failure.
test: vet serve-smoke
	$(GO) test ./...
	$(GO) vet -tags montagedebug ./...
	$(GO) test -tags montagedebug ./internal/epoch ./internal/core ./internal/pds
	for d in examples/*/; do $(GO) run ./$$d > /dev/null || exit 1; done

# Race-check the concurrency-heavy packages: the simulated device (the
# write-combining staging pipeline under concurrent writers and a
# crashing daemon), the allocator (concurrent alloc/free through the
# per-thread caches, the parallel recovery sweep), the observability recorder (hammered from every
# worker), the epoch system, the data structures, the sharded pool
# (concurrent writers + whole-pool crash/recovery), the core engine, the
# striped kvstore, the network front end (shared epoch-wait parking
# lot, one pump per connection over the reactor or a stream source), and
# the chaos harness (workers, advancer and crash racing on one pool). The
# library-level durability regression fails only intermittently when it
# fails at all, so it gets five extra runs. The server's TestAllocs* gates
# are skipped: under the race detector sync.Pool drops items at random,
# so "0 allocs/op" cannot hold; conns-smoke runs them without -race. The
# window tests (an ack settling under a running pump, throttle
# park/resume, a slow reader under the lot subscriber, a hang-up behind
# data), on the reactor and on the stream source, get ten extra runs.
race:
	$(GO) test -race -skip '^TestAllocs' ./internal/pmem ./internal/ralloc ./internal/obs ./internal/epoch ./internal/core ./internal/pds ./internal/pool ./internal/kvstore ./internal/server ./internal/chaos
	$(GO) test -race -count 5 -run TestHashMapMixedSyncCrashRecover ./internal/pds
	$(GO) test -race -count 10 -run 'TestAckSettlesUnderRunningPump|TestThrottleStallReactor|TestSlowReaderDoesNotHoldTheLot|TestHangUpBehindDataClosesConn|TestStreamSourceWindows' ./internal/server

# go vet, lint-dead, and any file gofmt would rewrite. The serving
# packages are vetted for darwin too: off Linux every connection runs on
# the stream source, and that build must not rot unseen.
vet: lint-dead
	$(GO) vet ./...
	GOOS=darwin $(GO) vet ./internal/server ./cmd/montage-serve
	@test -z "$$(gofmt -l .)" || { gofmt -l .; echo 'gofmt: the files above are not formatted'; exit 1; }

# The nonblocking epoch engine and its lazy-persist layer were deleted,
# and so were the server's pump-pool and flush-pool hand-offs; fail if
# any of their entry points reappears in Go source. Nor may the store or
# the server go back to counting or listing keys by copying every value:
# no HashMap.Snapshot in kvstore, no len(Keys()) on the serving path.
# The legacy BENCH_<n> suite, its committed baselines and its non-paper
# figures are gone too: benchmark/ is the one end-to-end harness. So is
# the server's second connection driver (a blocking read loop and a
# fallback writer): every connection runs the one pump over a source.
# And the protocol vocabulary lives once, in internal/memtext: no
# package keeps its own line reader, storage-header parser or
# error-line builders.
# Every structure recovers through pds.rebuild: no copying tag filter
# and no chunk-to-thread-id rule outside pds.go. The lock-based Stack
# is gone, and its tag 7 stays retired.
# The epoch-boundary drain commits its batch serially on the advancing
# goroutine: Drain starts no goroutine and calls commitBatch once, and the
# drain-parallelism knob (SetDrainWorkers, Config.DrainWorkers,
# -drain-workers, the drain_workers histogram) stays deleted.
# cmd/montage-crash is gone too: montage-chaos -workers 1 -mode
# drop|partial covers its single-threaded prefix oracle.
# The cluster layer (proxy, ring, rebalancer, node Kill/Revive, -nodes
# chaos) is gone because no benchmark workload measured it: internal/pool
# is the one scale-out path, so neither its directories nor its entry
# points may come back.
# The metrics table (internal/obs/table.go) is the one list of names:
# no hand list of histogram names or gauges beside it, no expvar export
# (and no /debug/vars mount) that no listener served, and no chaos
# counter group that montage-chaos never read.
# SkipListMap, Vector and LFStack are gone (their tags 5, 10 and 11 stay
# retired), and so are six exported entry points, because no figure,
# workload, chaos band, example or server path called any of them.
# The kvstore's LRU eviction, the -capacity knob that set it, its
# evictions stat and the montage-kv shell are gone because every figure,
# workload, chaos band and smoke ran the store unbounded and no test
# drove the shell; benchmark/ is skipped, since its served-workload
# guard still reads the stat by name.
lint-dead:
	@! grep -rnE 'BlockingAdvance|advanceNB|DrainShared|MarkDirty|DirtyBacklog|SettleAll|CrashAtClaim|CrashAtSettle' --include='*.go' .
	@! grep -rnE 'flushq|submitFlush|scheduleFlushLocked|pumpq|pumpWorker\b|schedulePump' --include='*.go' .
	@! grep -nE '\.Snapshot\(tid\)|len\([a-zA-Z.]*Keys\(' internal/kvstore/kvstore.go internal/kvstore/sharded.go internal/server/conn.go internal/server/server.go
	@! grep -rnE 'benchsuite|runSuiteMain|compareMain|Fig(Net|Shard|Cluster|Conns|Writeback)|NodeAffine|LoadDuration' --include='*.go' .
	@! ls BENCH_[0-9]*.json 2>/dev/null
	@! grep -rnE 'readLoop|fallbackWriter|runBlocking|closeNow|popReadyLocked|flushRaw|wcond|splitFields' --include='*.go' internal cmd
	@! grep -rnE 'func (readLine|clientError|serverError|hasNoreply|parseStorage)' --include='*.go' internal cmd
	@! grep -rn 'core\.FilterByTag' --include='*.go' internal/pds
	@! grep -rnE '%[[:space:]]*threads\b' --include='*.go' --exclude=pds.go internal/pds
	@! grep -rnE '\bNewStack(Tagged)?\b|\bRecoverStack(Tagged)?\b|\bTagStack\b|pds\.Stack\b' --include='*.go' .
	@! grep -rnE 'SetDrainWorkers|DrainWorkers|drainParallelism|HDrainWorkers|drain-workers|drain_workers' --include='*.go' .
	@! awk '/^func \(d \*Device\) Drain\(/,/^}/' internal/pmem/pmem.go | grep -nE '^[[:space:]]*go[[:space:]]|WaitGroup'
	@test "$$(awk '/^func \(d \*Device\) Drain\(/,/^}/' internal/pmem/pmem.go | grep -c 'commitBatch(')" = 1
	@! test -e cmd/montage-crash
	@! test -e internal/cluster -o -e cmd/montage-proxy -o -e scripts/cluster-smoke.sh
	@! grep -rnE 'CClu|ClusterStats|NodeRouter|NodeKeyImbalance|runClusterSchedule|setModeLoose|func \(s \*Server\) (Kill|Revive)\b' --include='*.go' .
	@! grep -rnE 'PublishExpvar|UnpublishExpvar|expvarSlot|promHistNames|promGauges|CChaos|ChaosStats|recordSchedule|"/debug/vars"' --include='*.go' .
	@! test -e internal/pds/skiplist.go -o -e internal/pds/vector.go -o -e internal/pds/lfstack.go
	@! grep -rnE 'SkipListMap|NewVector|RecoverVector|LFStack|TagSkipList\b|TagVector|TagLFStack|SavePool|ListenAndServe|SystemFor|MaxBlockSize|PendingFree' --include='*.go' .
	@! test -e cmd/montage-kv
	@! grep -rnE 'lruSeg|evictOne|Evictions|cfg\.Capacity|"capacity"|"evictions"' --include='*.go' --exclude-dir=benchmark .

# End-to-end smoke of the network front end: a loopback montage-serve
# instance driven by a montage-load burst in each durability-ack mode,
# asserting nonzero acked throughput and a clean SIGTERM drain.
serve-smoke:
	sh scripts/serve-smoke.sh

# Connection-scale smoke: a 1k-connection burst against a loopback
# montage-serve instance (exercising the ramped dialer, the reactor's
# surplus hand-off, and the capped recorder), plus the steady-state
# allocation gate
# — the parse/serve benchmarks must report 0 allocs/op, and the
# AllocsPerRun tests pin it hard.
conns-smoke:
	sh scripts/conns-smoke.sh
	$(GO) test -run 'TestAllocs' -bench 'BenchmarkParse|BenchmarkServeGet' -benchtime 100x -benchmem ./internal/server

# Crash-consistency sweep, all checked for buffered durable
# linearizability: a main band (shard counts 1/2/4 × drop-all/partial
# crashes × armed mid-fence/mid-drain/mid-durable-write and op-count
# triggers, ~25% with a second crash inside the recovery sweep), a
# hot-key band (-keys 4: nearly every op re-updates a payload already
# written in its epoch), and a net band through the live TCP server.
# Each band runs at GOMAXPROCS 1, 2 and 4: interleavings a single core
# never produces are where durability bugs have hidden. Any violation
# prints its reproduce command (with the GOMAXPROCS that exposed it); a
# schedule that stops making progress is failed by the harness watchdog
# with a goroutine dump instead of hanging the target.
chaos-smoke:
	for p in 1 2 4; do \
		GOMAXPROCS=$$p $(GO) run ./cmd/montage-chaos -seed 1 -schedules 1200 -q || exit 1; \
		GOMAXPROCS=$$p $(GO) run ./cmd/montage-chaos -seed 1 -schedules 300 -keys 4 -q || exit 1; \
		GOMAXPROCS=$$p $(GO) run ./cmd/montage-chaos -seed 1 -schedules 60 -net -shards 2 -q || exit 1; \
	done

# Quick-scale figure regeneration with a runtime-stats stream.
bench:
	$(GO) run ./cmd/montage-bench -figure 6 -scale quick -stats-file stats_quick.json

# One-iteration pass over the hot-path microbenchmarks (device
# write-back/fence/drain, the one-block fence after a bulk batch,
# allocator size-class lookup, a 100 k-item recovery, the stats command
# over 100 k items) and over the paper's figures (Fig. 4-12, the §6.4
# recovery sweep, the ablations, the core ops): catches benchmark-code
# rot and accidental allocation regressions without measuring anything.
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -run '^$$' . ./internal/pmem ./internal/ralloc ./internal/kvstore ./internal/server

clean:
	rm -f stats_quick.json
