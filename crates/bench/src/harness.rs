//! Shared experiment plumbing: sweeps, seeds, report assembly, and the
//! command-line flag parser.

use std::str::FromStr;

use oraclesize_graph::families::Family;

/// The master seed every experiment derives from; recorded in
/// EXPERIMENTS.md so runs are reproducible.
pub const MASTER_SEED: u64 = 2006;

/// The graph-size sweep used by the size/message experiments
/// (`2^k` for `k = 4..=max_pow`).
pub fn size_sweep(max_pow: u32) -> Vec<usize> {
    (4..=max_pow).map(|k| 1usize << k).collect()
}

/// The family subset used for dense sweeps (keeps the harness fast while
/// covering sparse, dense, tree-like and adversarial shapes).
pub const SWEEP_FAMILIES: [Family; 5] = [
    Family::Complete,
    Family::Hypercube,
    Family::RandomSparse,
    Family::Lollipop,
    Family::RandomTree,
];

/// A rendered experiment report: heading, prose, and one or more tables.
#[derive(Debug, Clone, Default)]
pub struct Report {
    sections: Vec<String>,
}

impl Report {
    /// An empty report with a Markdown heading.
    pub fn new(title: &str) -> Self {
        Report {
            sections: vec![format!("## {title}\n")],
        }
    }

    /// Appends a paragraph.
    pub fn para(&mut self, text: &str) -> &mut Self {
        self.sections.push(format!("{text}\n"));
        self
    }

    /// Appends a rendered table (Markdown or CSV fenced block).
    pub fn block(&mut self, body: &str) -> &mut Self {
        self.sections.push(body.to_string());
        self
    }

    /// Appends a CSV block fenced for Markdown.
    pub fn csv(&mut self, body: &str) -> &mut Self {
        self.sections.push(format!("```csv\n{body}```\n"));
        self
    }

    /// Renders the report.
    pub fn render(&self) -> String {
        self.sections.join("\n")
    }
}

/// Command-line arguments split into flags and positionals — the one
/// flag parser behind every `experiments` subcommand.
#[derive(Debug, Default)]
pub struct Args {
    /// `(flag, value)` pairs in command-line order; switches carry `None`.
    flags: Vec<(String, Option<String>)>,
    /// The arguments that are not flags, in order.
    pub positional: Vec<String>,
}

impl Args {
    /// Splits `args`: each flag named in `switches` stands alone, each
    /// flag named in `valued` takes the next argument as its value.
    /// Flags may appear anywhere among the positionals.
    ///
    /// # Errors
    ///
    /// Returns a usage message for an unknown `--flag` or a valued flag
    /// missing its value.
    pub fn parse(
        args: impl IntoIterator<Item = String>,
        switches: &[&str],
        valued: &[&str],
    ) -> Result<Args, String> {
        let mut out = Args::default();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            if switches.contains(&arg.as_str()) {
                out.flags.push((arg, None));
            } else if valued.contains(&arg.as_str()) {
                let value = args
                    .next()
                    .ok_or_else(|| format!("{arg} requires a value"))?;
                out.flags.push((arg, Some(value)));
            } else if arg.starts_with("--") {
                return Err(format!("unknown flag {arg:?}"));
            } else {
                out.positional.push(arg);
            }
        }
        Ok(out)
    }

    /// `true` when `flag` was given.
    pub fn has(&self, flag: &str) -> bool {
        self.flags.iter().any(|(f, _)| f == flag)
    }

    /// The value of the last occurrence of a valued `flag`, so a later
    /// `--seed 4` overrides an earlier `--seed 3`.
    pub fn value(&self, flag: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(f, _)| f == flag)
            .and_then(|(_, v)| v.as_deref())
    }

    /// The value of `flag` parsed as a `T` (an integer or a float).
    ///
    /// # Errors
    ///
    /// Returns a usage message when the value does not parse as a `T`.
    pub fn number<T: FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        self.value(flag)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("{flag} expects a number, got {v:?}"))
            })
            .transpose()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_sweep_is_powers_of_two() {
        assert_eq!(size_sweep(6), vec![16, 32, 64]);
    }

    #[test]
    fn report_renders_in_order() {
        let mut r = Report::new("T0");
        r.para("hello").block("| a |\n");
        let s = r.render();
        assert!(s.starts_with("## T0"));
        assert!(s.find("hello").unwrap() < s.find("| a |").unwrap());
    }

    fn args(line: &str) -> Result<Args, String> {
        Args::parse(
            line.split_whitespace().map(String::from),
            &["--large"],
            &["--threads", "--out"],
        )
    }

    #[test]
    fn args_split_flags_from_positionals_and_reject_bad_input() {
        let a = args("t1 --threads 4 --large t7 --out dir").unwrap();
        assert_eq!(a.positional, vec!["t1", "t7"]);
        assert!(a.has("--large") && !args("t1").unwrap().has("--large"));
        assert_eq!(a.value("--out"), Some("dir"));
        assert_eq!(a.number("--threads"), Ok(Some(4usize)));
        assert_eq!(a.number::<u64>("--missing"), Ok(None));
        // A repeated flag takes its last value.
        let a = args("--threads 3 --out a --threads 5").unwrap();
        assert_eq!(a.number("--threads"), Ok(Some(5u32)));
        let a = args("--out 0.25").unwrap();
        assert_eq!(a.number("--out"), Ok(Some(0.25f64)));
        assert_eq!(
            args("--out x").unwrap().number::<f64>("--out").unwrap_err(),
            "--out expects a number, got \"x\""
        );
        assert_eq!(
            args("t1 --threads").unwrap_err(),
            "--threads requires a value"
        );
        assert_eq!(args("--bogus").unwrap_err(), "unknown flag \"--bogus\"");
        assert_eq!(
            args("--threads x")
                .unwrap()
                .number::<usize>("--threads")
                .unwrap_err(),
            "--threads expects a number, got \"x\""
        );
    }
}
