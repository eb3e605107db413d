#!/usr/bin/env bash
# Repo CI gate: lints must be clean and formatting canonical before the
# test suite counts. Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo clippy (workspace, all targets, -D warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc (workspace, -D warnings) =="
# A deletion that leaves an intra-doc link behind fails here, not in a
# reader's browser.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "== crate layering: xdaq-* dependencies point strictly down =="
# DESIGN.md §2 states this order, one layer per line, lowest first. A
# crate may depend only on crates of an earlier line.
layers="sys i2o mon
mempool
core
pt shm rec
evb
ctl
sim"
layer_of() { { echo "$layers" | grep -nw -- "$1" || true; } | cut -d: -f1; }
bad=0
for manifest in crates/*/Cargo.toml; do
    crate=$(basename "$(dirname "$manifest")")
    own=$(layer_of "$crate")
    if [ -z "$own" ]; then
        echo "crates/$crate is missing from the layering order" >&2
        bad=1
        continue
    fi
    for dep in $(grep -oE '^xdaq-[a-z0-9]+' "$manifest" | sed 's/^xdaq-//'); do
        below=$(layer_of "$dep")
        if [ -z "$below" ] || [ "$below" -ge "$own" ]; then
            echo "crates/$crate depends on xdaq-$dep, which is not a lower layer" >&2
            bad=1
        fi
    done
done

echo "== removed mechanisms stay removed =="
# Each row is `what` `where` `why`. `what` is an extended regex that may
# match no line of the files under `where`, or, where `where` is `-`, a
# list of paths that may not exist. `why` is what the failure prints
# under the lines it found.
guards=(
    # One raw-syscall layer: shm, rec and pt each grew a private copy of
    # the same syscall stubs once; xdaq-sys is the audited one. The
    # globs name every crate but crates/sys.
    'asm!' 'crates/[!s]* crates/s[!y]*'
    'asm! outside crates/sys (listed above): call xdaq-sys instead'
    # A crate that was folded away may not grow back.
    'xdaq-(host|app|probe|bench|gm)' 'Cargo.toml crates src tests examples'
    'xdaq-{host,app,probe,bench,gm} (listed above) were removed; DESIGN.md §2 says where their code lives'
    # The crossbeam and bytes shims were a locked deque and an Arc<[u8]>
    # under borrowed names. benchmark/ is left out: its lock file is
    # stale.
    '^(crossbeam|bytes)\b' 'Cargo.toml crates/*/Cargo.toml'
    'crossbeam/bytes (listed above) were removed; DESIGN.md §2 lists the shims that remain'
    '(^|[^A-Za-z0-9_])(crossbeam|bytes)::' 'crates src tests examples'
    'crossbeam/bytes (listed above) were removed; DESIGN.md §2 lists the shims that remain'
    # One socket transport: `tcp` is a spelling of xpt, and Linux
    # x86_64/aarch64 is the one platform, so neither the second transport
    # nor the portable syscall stub it served may grow back.
    'crates/pt/src/tcp.rs' -
    'crates/pt/src/tcp.rs (listed above) was removed; DESIGN.md §15 says why'
    'TcpPt|sys::supported\(' 'crates src tests examples'
    'TcpPt and sys::supported() (listed above) were removed; DESIGN.md §15 says why'
    # One credit loop: the event builder's credits bound its queues, so
    # link-level flow control and tenant admission may not grow back.
    'crates/core/src/credit.rs crates/core/src/admission.rs' -
    'link credits and admission (listed above) were removed; DESIGN.md §13 says why'
    'CreditManager|AdmissionControl|FlowConfig' 'crates src tests examples'
    'link credits and admission (listed above) were removed; DESIGN.md §13 says why'
    # One frame per block: nothing shipped a chained frame, so frame
    # chaining, the I2O SGL and shm's descriptor chains may not grow
    # back.
    'crates/core/src/chainio.rs crates/mempool/src/chain.rs crates/i2o/src/sgl.rs' -
    'frame chaining and the SGL (listed above) were removed; DESIGN.md §1 says why'
    'ChainCollector|send_chained|split_into_frames|\bSgl(Element|Flags|Error)?\b|FLAG_MORE|CHAIN_STALL_TIMEOUT|discard_chain' 'crates src tests examples'
    'frame chaining, the SGL and shm descriptor chains (listed above) were removed; DESIGN.md §1 says why'
    # One recovery path: a frame is sent once, down one route; the event
    # builder and the control plane repair what is lost, so
    # transport-level retry, backoff and route failover may not grow
    # back.
    'examples/failover.rs' -
    'route failover (listed above) was removed; DESIGN.md §8 "Recovery, overload" says why'
    'RetryPolicy|send_failover|add_alternate|reorder_for_locality|SEND_DEADLINE|MAX_BACKOFF' 'crates src tests examples'
    'PTA retry and route failover (listed above) were removed; DESIGN.md §8 "Recovery, overload" says why'
    # One shm mode: the dispatch loop polls the shm:// rings, and pci://
    # was a second loopback, so the task-mode receive thread with its
    # eventfd and FIFO doorbell, the syscalls only it made, and the
    # simulated PCI bus may not grow back.
    'crates/shm/src/doorbell.rs crates/pt/src/pcisim.rs' -
    'shm task mode and pci:// (listed above) were removed; DESIGN.md §9 "Polling only" says why'
    'PeerBell|SPIN_BUDGET|ppoll_readable_many|mkfifo|PciPt|PciBus|FifoKind' 'crates src tests examples'
    'shm task mode, its doorbell and pci:// (listed above) were removed; DESIGN.md §9 "Polling only" says why'
    # A cheap frame hop: one executive thread dispatches, so the
    # scheduler takes one lock with no occupancy atomics, and the
    # per-frame maps and sets are keyed by node-local TiDs, timer ids,
    # link addresses and the event ids the cluster's own event manager
    # mints, on FastMap and FastSet, not SipHash.
    'occupied: AtomicU8|\[Mutex<Level>; NUM_PRIORITIES\]|Hash(Map|Set)<(Tid|TimerId|GmAddr|u64)\b' 'crates/core/src crates/pt/src/gm crates/pt/src/loopback.rs crates/evb/src'
    'per-level queue locks or SipHash maps on the frame path (listed above) were removed; DESIGN.md §10 says why'
    # A value the code can derive is not declared, and a knob nobody
    # turns is not kept: the event manager reads its builders' addresses
    # from their routes, so neither their declared copy nor the `.xtop`
    # template language that filled it may grow back, and neither may
    # ChaosPt's faults beyond drop or ReplayPt's runtime keys.
    'bu_urls|@url:|fail_per_mille|dup_per_mille|corrupt_per_mille|delay_every|FaultPlan::failing|replay\.(dir|pace_us|retarget|limit)' 'crates src tests examples'
    'declared builder urls, @url: templates, ChaosPt'"'"'s non-drop faults and replay.* keys (listed above) were removed; DESIGN.md §8 "ChaosPt" and §14 say why'
    # One home per count: an event-builder fact is counted once, in the
    # node's registry, through handles every device holds from `new()`
    # on, so neither a side struct of builder counters nor a metrics
    # `Option` that every count must unwrap may grow back.
    'BuilderStats|Option<[A-Za-z]*Metrics>' 'crates/evb/src'
    'BuilderStats or an optional metrics field (listed above) was removed; DESIGN.md §12 "Observability" says why'
    # One liveness signal: the Controller reads a managed node's health
    # from the control host's own link supervisor, so neither the host's
    # fault-event queue nor the Controller's scrape poll may grow back.
    'take_events|watch_local_faults|watch_events|mark_degraded|SCRAPE_EVERY|scrape_tick' 'crates src tests examples'
    'the host fault-event queue and the Controller scrape poll (listed above) were removed; DESIGN.md §14 "The convergence loop" says why'
    # One way back for a failed node: a node whose link is Down is
    # fenced and respawned, and a failed respawn is retried by the
    # tick, so neither a half-alive Degraded row, a retry message that
    # no tick honours, nor a desired column that is Up on every row may
    # grow back.
    'Degraded|will retry|desired:' 'crates src tests examples'
    'Health::Degraded, the "will retry" respawn message and NodeStatus::desired (listed above) were removed; DESIGN.md §14 "Service registry" says why'
)
for ((i = 0; i < ${#guards[@]}; i += 3)); do
    what=${guards[i]} where=${guards[i + 1]} why=${guards[i + 2]}
    if [ "$where" = - ]; then
        found=$(for path in $what; do [ ! -e "$path" ] || echo "$path"; done)
    else
        # $where is split and globbed on purpose: it lists paths.
        found=$(grep -rnE -- "$what" $where || true)
    fi
    if [ -n "$found" ]; then
        echo "$found" >&2
        echo "$why" >&2
        bad=1
    fi
done

# One wiring rule: every in-process event builder is wired by
# crates/evb/src/mesh.rs, so a readout's source index and the manager's
# readout list are spelled out nowhere else, except in the readout's and
# the builder's unit tests (one device beside fakes) and the
# multi-process children and host of tests/evb.rs, which wire
# themselves over shm://.
hand_wired=$(find crates src tests examples -name '*.rs' | sort | xargs awk '
    FNR == 1 { test = 0; fn = "" }
    /^[[:space:]]*#\[cfg\(test\)\]/ { test = 1 }
    /^(pub )?fn / { fn = $0; sub(/^(pub )?fn /, "", fn); sub(/[(<].*/, "", fn) }
    /\("(readouts|source_id)",/ {
        if (FILENAME == "crates/evb/src/mesh.rs") next
        if (test && FILENAME ~ /^crates\/evb\/src\/(bu|ru)\.rs$/) next
        if (FILENAME == "tests/evb.rs" && fn ~ /^(build_mesh|child_evb_ru|child_evb_bu)$/) next
        print FILENAME ":" FNR ": " $0
    }')
if [ -n "$hand_wired" ]; then
    echo "$hand_wired" >&2
    echo "a hand-wired event builder (listed above): wire it with xdaq_evb::Mesh; DESIGN.md §12 says why" >&2
    bad=1
fi
[ "$bad" -eq 0 ] || exit 1

echo "== one clock seam: wall time in core and evb only where DESIGN.md §16 lists it =="
# Everything on an executive's event path reads time through its Clock.
# In non-test code of crates/core/src and crates/evb/src (each file up
# to its first #[cfg(test)], comment lines skipped), Instant::now(),
# .elapsed() and thread::sleep may appear only in clock.rs (the seam
# itself), executive.rs (watchdog and trace stamps, the uptime epoch)
# and monitor.rs (uptime).
wall=$(find crates/core/src crates/evb/src -name '*.rs' \
    ! -name clock.rs ! -name executive.rs ! -name monitor.rs | sort \
    | xargs awk '
        FNR == 1 { live = 1 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { live = 0 }
        live && !/^[[:space:]]*\/\// && /Instant::now\(\)|\.elapsed\(\)|thread::sleep/ {
            print FILENAME ":" FNR ": " $0
        }')
if [ -n "$wall" ]; then
    echo "$wall" >&2
    echo "wall time outside the clock seam (listed above): take the executive's Clock" >&2
    exit 1
fi

echo "== cargo test (workspace) =="
# Every always-on suite runs here, once. What the ones an operator
# would look for cover:
# - `--test faults`: a dropped frame is never resent, the fixed-seed
#   chaos run must be deterministic, and a killed supervised link must
#   go Down and evict its routes.
# - `-p xdaq-sim`: 100 full-cluster kill/partition/delay/corrupt
#   experiments on the virtual clock (~1 s of wall time), each asserting
#   zero event loss, plus the fixed-seed byte-for-byte golden-trace
#   replay and the shrink-to-minimal-repro test.
# - `--test ctl`, `-p xdaq-ctl`: an RU/BU/EVM topology booted purely
#   from a declaration file, a builder SIGKILLed mid-run (the
#   convergence loop must respawn it, restore routes and finish with
#   zero loss), and a rolling drain+restart of the other builder.
# - `--test flow` (DESIGN.md §13): no link meters data frames, so a
#   slow consumer's backlog must never get a live peer Suspected
#   (heartbeats are priority MAX), an shm region must bound the
#   receiver's queue with `WouldBlock` at the sender, and the shm and
#   xpt slow-consumer soaks must lose no frame and leak no pool block;
#   stale `flow.*`/`qos.*` keys must be refused. `--test evb` pins the
#   bound that replaces link credits: a slow builder's queue stays
#   under what its event-builder credits allow.
# - `-p xdaq-sys`: raw-syscall round trips (eventfd seen by epoll,
#   mmap, pwritev/fdatasync/ftruncate) and kernel-ABI layout asserts.
# - `-p xdaq-pt`: the xpt suite on its one driver (a stalled peer does
#   not hold up the others, idle links cost no driver CPU, the first
#   frame on a fresh link and a header-only frame are served at once,
#   hang-ups and corrupt streams surface down peers, one link per peer
#   under racing connects, and `stop` delivers every frame `send`
#   accepted within a bounded flush), and the `xpt_wire` proptest model
#   of the wire layer (chunking/donation/completion equivalence, a frame
#   started inline and finished from the ring).
cargo test --workspace -q

echo "== xpt suite, release: inline writes racing the driver =="
# A sender writes an idle link itself and the driver takes the link
# over mid-frame when the socket pushes back. That window only opens
# at release speed: `inline_and_driver_writes_interleave_without_
# reordering` pushes 10 000 stamped frames through a repeatedly
# stalled sink and checks order, bytes, completions and pool blocks.
cargo test --release -q -p xdaq-pt xpt

# The multi-process/chaos tiers below are capability-gated: the heavy
# tests early-return unless XDAQ_TEST_HEAVY=1, so a plain `cargo test`
# stays fast while CI opts in to the full fault-injection surface.

echo "== event recording: round-trip, replay, crash recovery (heavy) =="
# Covers the zero-copy append path (iovec aliasing asserted), the
# record→replay determinism loop (live filter decisions reproduced from
# the store), and SIGKILLing a recorder process mid-write followed by
# torn-tail recovery.
XDAQ_TEST_HEAVY=1 cargo test -q --test rec

echo "== shm multi-process smoke (echo + kill) (heavy) =="
# Spawns real child processes on the far side of the region; covers
# zero-copy descriptor passing, heap frames copied into one region
# block each, and SIGKILL detection.
XDAQ_TEST_HEAVY=1 cargo test -q --test shm

echo "== event builder: chaos mesh + builder kill (multi-process, heavy) =="
# A real 4x2 RU/BU mesh, one process per node over shm regions. The
# chaos run drops 10% of fragments (fixed seed) and must finish with
# zero loss; the kill run SIGKILLs a builder mid-run and the event
# manager must reclaim its credits and reassign its events.
XDAQ_TEST_HEAVY=1 cargo test -q --test evb

echo "== the paper's evaluation shapes (release, heavy) =="
# FIG6, ALLOC and PTMODE as orderings and ratios with wide margin
# (tests/paper.rs); timing only means something optimised.
XDAQ_TEST_HEAVY=1 cargo test --release -q --test paper

echo "== benchmark: self-test + smoke of every workload =="
# The one measurement spine (benchmark/README.md) must keep building
# against the product: its own unit tests (checkers, spec vs
# BENCHMARK.json), then every workload for 0.5 s traced and untraced —
# any failed operation fails the stage. No bounds are judged here;
# performance claims are made with `benchmark/run.sh`, paired against
# the parent commit.
# Building the benchmark package rewrites its lock file; the committed
# copy goes back on exit, green or red, so CI leaves the tree clean.
lock_copy=$(mktemp)
cp benchmark/Cargo.lock "$lock_copy"
trap 'cp "$lock_copy" benchmark/Cargo.lock; rm -f "$lock_copy"' EXIT
bash benchmark/run.sh --selftest
bash benchmark/run.sh --smoke

echo "== loom model of the shm SPSC ring =="
RUSTFLAGS="--cfg loom" cargo test -q -p xdaq-shm --test loom --release

echo "== failure injection under ThreadSanitizer (advisory) =="
# Needs a nightly toolchain with -Z sanitizer support; results are
# advisory — TSan findings are reported but do not fail the gate.
if rustup toolchain list 2>/dev/null | grep -q nightly; then
    host_triple="$(rustc -vV | sed -n 's/^host: //p')"
    # With rust-src, rebuild std instrumented too (fewer false
    # positives); without it, instrument only the workspace and allow
    # the sanitizer ABI mismatch against the prebuilt std. In that
    # degraded mode std's futex-based Mutex is invisible to TSan, so
    # data that is in fact lock-protected is reported as racing.
    build_std=()
    flags="-Zsanitizer=thread"
    if rustup component list --toolchain nightly 2>/dev/null \
        | grep -q "rust-src (installed)"; then
        build_std=(-Z build-std)
    else
        flags="$flags -Cunsafe-allow-abi-mismatch=sanitizer"
    fi
    tsan() {
        RUSTFLAGS="$flags" RUSTDOCFLAGS="$flags" \
            cargo +nightly test "${build_std[@]}" --target "$host_triple" "$@"
    }
    if tsan -p xdaq --test faults && tsan -p xdaq-core --test failures; then
        echo "tsan: clean"
    else
        echo "tsan: findings above are ADVISORY, not blocking"
    fi
else
    echo "tsan: no nightly toolchain installed, skipping (advisory stage)"
fi

echo "ci: all green"
