//! Command-line parsing shared by the binaries of `mfn-bench` and
//! `mfn-serve`. Every mistake — a missing or malformed value, an unknown
//! option — prints the message and the usage line and exits 2, never a panic.

use std::str::FromStr;

/// A binary's arguments after the program name, with its usage line.
pub struct Cli {
    usage: &'static str,
    args: std::vec::IntoIter<String>,
}

impl Cli {
    /// The process's arguments; `usage` is printed with every error.
    pub fn new(usage: &'static str) -> Self {
        Self::with_args(usage, std::env::args().skip(1))
    }

    /// `args` (program name excluded) in place of the process's.
    pub fn with_args(usage: &'static str, args: impl IntoIterator<Item = String>) -> Self {
        Cli { usage, args: args.into_iter().collect::<Vec<_>>().into_iter() }
    }

    /// The next argument, or `None` after the last. `--help` and `-h` print
    /// the usage line and exit 0.
    pub fn next_flag(&mut self) -> Option<String> {
        let arg = self.args.next()?;
        if arg == "--help" || arg == "-h" {
            println!("{}", self.usage);
            std::process::exit(0);
        }
        Some(arg)
    }

    /// The argument after `flag`, parsed (whitespace around it ignored).
    pub fn value<T: FromStr>(&mut self, flag: &str) -> T {
        let text = self.args.next().unwrap_or_else(|| self.fail(&format!("{flag} needs a value")));
        self.parse(flag, &text)
    }

    /// The comma-separated argument after `flag`, each item parsed.
    pub fn list<T: FromStr>(&mut self, flag: &str) -> Vec<T> {
        let text: String = self.value(flag);
        text.split(',').map(|item| self.parse(flag, item)).collect()
    }

    fn parse<T: FromStr>(&self, flag: &str, text: &str) -> T {
        text.trim().parse().unwrap_or_else(|_| self.fail(&format!("bad value {text:?} for {flag}")))
    }

    /// Prints `msg` and the usage line, then exits 2.
    pub fn fail(&self, msg: &str) -> ! {
        eprintln!("error: {msg}\n{}", self.usage);
        std::process::exit(2)
    }
}
