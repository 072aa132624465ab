//! # mapwave-repro
//!
//! Repository façade for the **mapwave** workspace — a from-scratch Rust
//! reproduction of *"Energy Efficient MapReduce with VFI-enabled Multicore
//! Platforms"* (DAC 2015).
//!
//! This crate re-exports the workspace members so repository-level
//! integration tests and examples can address the whole stack through one
//! dependency:
//!
//! * [`mapwave`] — the design flow, placement, full-system simulation and
//!   experiment reproductions (the paper's contribution);
//! * [`mapwave_noc`] — the cycle-accurate mesh / small-world / wireless
//!   NoC simulator;
//! * [`mapwave_vfi`] — VFI clustering, V/F assignment and power models;
//! * [`mapwave_manycore`] — the tiled-platform substrate;
//! * [`mapwave_phoenix`] — the Phoenix++-style runtime model and the six
//!   instrumented applications;
//! * [`mapwave_sweep`] — the persistent, resumable design-space sweep
//!   engine with its content-addressed artifact store and query CLI.
//!
//! See the workspace `README.md` for a tour and `EXPERIMENTS.md` for the
//! paper-versus-measured record.

pub use mapwave;
pub use mapwave_faults;
pub use mapwave_manycore;
pub use mapwave_noc;
pub use mapwave_phoenix;
pub use mapwave_sweep;
pub use mapwave_vfi;

pub mod cli {
    //! Strict argument parsing shared by the repository examples.
    //!
    //! A missing argument falls back to its default; a *present but
    //! malformed* argument is a hard error carrying the example's usage
    //! line. (Several examples used to `parse().ok()` and silently run
    //! the default configuration on a typo — an easy way to benchmark
    //! the wrong experiment.)
    //!
    //! Besides positional arguments, every example accepts one flag,
    //! which may appear anywhere on the command line (flags are stripped
    //! before positional indexing):
    //!
    //! * `--cores N` (or `--cores=N`), the die size. Must be a perfect
    //!   square with an even side (16, 64, 256, 1024, …) so the die can
    //!   be quartered into VFI quadrants; the examples default to the
    //!   paper's 64.
    //!
    //! Governed examples additionally accept:
    //!
    //! * `--power-cap W` (or `--power-cap=W`), the chip-level power cap
    //!   in watts enforced by the online DVFS governor;
    //! * `--epoch-cycles N`, the governor's sampling epoch in reference
    //!   cycles;
    //! * `--dram ideal|banked`, selecting the fixed-latency or the
    //!   banked memory-controller model.
    //!
    //! Examples that do not run the governor reject these three flags
    //! with a clear error (see [`forbid_governor_flags`]) instead of
    //! silently ignoring them.
    //!
    //! A duplicate flag, a missing value, or a malformed value is a
    //! hard error.

    /// Names of the recognised flags, indexed by the `FLAG_*` constants.
    const FLAG_NAMES: [&str; 4] = ["--cores", "--power-cap", "--epoch-cycles", "--dram"];
    const FLAG_CORES: usize = 0;
    const FLAG_POWER_CAP: usize = 1;
    const FLAG_EPOCH_CYCLES: usize = 2;
    const FLAG_DRAM: usize = 3;
    const FLAG_COUNT: usize = 4;

    /// The command line split into per-flag occurrence lists (each
    /// occurrence's raw value, `None` when the flag is last with no
    /// value) and the remaining positional arguments, in order.
    fn split() -> ([Vec<Option<String>>; FLAG_COUNT], Vec<String>) {
        let mut flags: [Vec<Option<String>>; FLAG_COUNT] = Default::default();
        let mut positional = Vec::new();
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            if let Some(i) = FLAG_NAMES.iter().position(|f| *f == arg) {
                flags[i].push(args.next());
            } else if let Some((i, value)) = FLAG_NAMES
                .iter()
                .enumerate()
                .find_map(|(i, f)| Some((i, arg.strip_prefix(f)?.strip_prefix('=')?)))
            {
                flags[i].push(Some(value.to_string()));
            } else {
                positional.push(arg);
            }
        }
        (flags, positional)
    }

    /// At most one occurrence of flag `index`, or an error echoing
    /// `usage` on a duplicate flag or a flag with no value.
    fn flag_value(index: usize, usage: &str) -> Result<Option<String>, String> {
        let (flags, _) = split();
        let name = FLAG_NAMES[index];
        match &flags[index][..] {
            [] => Ok(None),
            [Some(raw)] => Ok(Some(raw.clone())),
            [None] => Err(format!("{name} needs a value\nusage: {usage}")),
            _ => Err(format!("duplicate {name} flag\nusage: {usage}")),
        }
    }

    /// The `--cores` die size: `default` when the flag is absent,
    /// otherwise its value. Accepted values are perfect squares with an
    /// even side (16, 64, 144, 256, …, 1024) so the die can be laid out
    /// as the quadrant-clustered squares the design flow generates; use
    /// [`die_side`] for the side length.
    ///
    /// # Errors
    ///
    /// A duplicate flag, a flag with no value, and a value that is not
    /// such a square all fail with a message echoing `usage`.
    pub fn cores(default: usize, usage: &str) -> Result<usize, String> {
        match flag_value(FLAG_CORES, usage)? {
            None => Ok(default),
            Some(raw) => match raw.parse::<usize>() {
                Ok(n) if n >= 4 && die_side(n) * die_side(n) == n && die_side(n).is_multiple_of(2) => {
                    Ok(n)
                }
                _ => Err(format!(
                    "invalid --cores value {raw:?} (want a perfect square with an even side: 16, 64, 256, 1024, ...)\nusage: {usage}"
                )),
            },
        }
    }

    /// The `--power-cap` chip power budget in watts, if the flag is
    /// present.
    ///
    /// # Errors
    ///
    /// A duplicate flag, a flag with no value, and a value that is not a
    /// finite number > 0 all fail with a message echoing `usage`.
    pub fn power_cap(usage: &str) -> Result<Option<f64>, String> {
        match flag_value(FLAG_POWER_CAP, usage)? {
            None => Ok(None),
            Some(raw) => match raw.parse::<f64>() {
                Ok(w) if w.is_finite() && w > 0.0 => Ok(Some(w)),
                _ => Err(format!(
                    "invalid --power-cap value {raw:?} (want watts > 0)\nusage: {usage}"
                )),
            },
        }
    }

    /// The `--epoch-cycles` governor sampling epoch: `default` when the
    /// flag is absent, otherwise its value.
    ///
    /// # Errors
    ///
    /// A duplicate flag, a flag with no value, and a value that is not
    /// an integer ≥ 1000 (sub-millisecond epochs would outrun any real
    /// power-telemetry loop) all fail with a message echoing `usage`.
    pub fn epoch_cycles(default: u64, usage: &str) -> Result<u64, String> {
        match flag_value(FLAG_EPOCH_CYCLES, usage)? {
            None => Ok(default),
            Some(raw) => match raw.parse::<u64>() {
                Ok(n) if n >= 1000 => Ok(n),
                _ => Err(format!(
                    "invalid --epoch-cycles value {raw:?} (want an integer >= 1000)\nusage: {usage}"
                )),
            },
        }
    }

    /// The `--dram` memory-model selector: `false` (ideal, the default)
    /// or `true` (banked controller model).
    ///
    /// # Errors
    ///
    /// A duplicate flag, a flag with no value, and any value other than
    /// `ideal` or `banked` all fail with a message echoing `usage`.
    pub fn dram_banked(usage: &str) -> Result<bool, String> {
        match flag_value(FLAG_DRAM, usage)?.as_deref() {
            None | Some("ideal") => Ok(false),
            Some("banked") => Ok(true),
            Some(raw) => Err(format!(
                "invalid --dram value {raw:?} (want \"ideal\" or \"banked\")\nusage: {usage}"
            )),
        }
    }

    /// Fails when any governor flag (`--power-cap`, `--epoch-cycles`,
    /// `--dram`) is present. Examples that do not run the governed
    /// system call this so the flags error loudly instead of being
    /// silently ignored.
    pub fn forbid_governor_flags(usage: &str) -> Result<(), String> {
        let (flags, _) = split();
        for i in [FLAG_POWER_CAP, FLAG_EPOCH_CYCLES, FLAG_DRAM] {
            if !flags[i].is_empty() {
                return Err(format!(
                    "{} is not supported by this example\nusage: {usage}",
                    FLAG_NAMES[i]
                ));
            }
        }
        Ok(())
    }

    /// The square die side for a core count accepted by [`cores`].
    pub fn die_side(cores: usize) -> usize {
        let mut side = (cores as f64).sqrt().round() as usize;
        while side * side > cores {
            side -= 1;
        }
        while (side + 1) * (side + 1) <= cores {
            side += 1;
        }
        side
    }

    /// Positional argument `pos` (1-based, after the binary name, with
    /// the recognised flags stripped), if present.
    pub fn positional(pos: usize) -> Option<String> {
        split().1.into_iter().nth(pos - 1)
    }

    /// Parses positional argument `pos` (1-based, after the binary name)
    /// with `parse`, falling back to `default` when the argument is
    /// absent.
    ///
    /// Returns an error naming the offending value and echoing `usage`
    /// when the argument is present but `parse` rejects it.
    pub fn arg_or<T>(
        pos: usize,
        default: T,
        what: &str,
        usage: &str,
        parse: impl FnOnce(&str) -> Option<T>,
    ) -> Result<T, String> {
        match positional(pos) {
            None => Ok(default),
            Some(raw) => {
                parse(&raw).ok_or_else(|| format!("invalid {what} {raw:?}\nusage: {usage}"))
            }
        }
    }

    /// [`arg_or`] for any [`FromStr`](std::str::FromStr) type.
    pub fn parsed_arg_or<T: std::str::FromStr>(
        pos: usize,
        default: T,
        what: &str,
        usage: &str,
    ) -> Result<T, String> {
        arg_or(pos, default, what, usage, |raw| raw.parse().ok())
    }

    /// Fails when any positional argument beyond position `last`
    /// (1-based) is present. Every example calls this after consuming
    /// its known positions, so a misspelled or unsupported flag errors
    /// with the usage line instead of silently running the default
    /// configuration.
    pub fn expect_no_args_past(last: usize, usage: &str) -> Result<(), String> {
        match positional(last + 1) {
            None => Ok(()),
            Some(extra) => Err(format!("unexpected argument {extra:?}\nusage: {usage}")),
        }
    }
}
