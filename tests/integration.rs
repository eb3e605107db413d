//! The crate suites under `crates/*/tests`, run from the root package
//! so that `cargo test` at the root runs them too. Each file is shared
//! through `#[path]`, not copied; `cargo test -p <crate>` still runs it
//! as its crate's own test target. `crates/shm/tests/loom.rs` is left
//! out: it builds only under `--cfg loom` and has its own CI stage.

#[path = "../crates/core/tests/executive.rs"]
mod core_executive;
#[path = "../crates/core/tests/failures.rs"]
mod core_failures;
#[path = "../crates/core/tests/inbox.rs"]
mod core_inbox;
#[path = "../crates/core/tests/proptests.rs"]
mod core_proptests;
#[path = "../crates/evb/tests/proptests.rs"]
mod evb_proptests;
#[path = "../crates/i2o/tests/proptests.rs"]
mod i2o_proptests;
#[path = "../crates/mempool/tests/accounting.rs"]
mod mempool_accounting;
#[path = "../crates/mempool/tests/proptests.rs"]
mod mempool_proptests;
#[path = "../crates/mon/tests/proptests.rs"]
mod mon_proptests;
#[path = "../crates/pt/tests/gm_fabric.rs"]
mod pt_gm_fabric;
#[path = "../crates/pt/tests/xpt_wire.rs"]
mod pt_xpt_wire;
#[path = "../crates/sim/tests/sweeps.rs"]
mod sim_sweeps;
