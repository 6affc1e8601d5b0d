//! The command-line plumbing `cegcli` (the server) and `cegtool` (every
//! other command) share: a table of subcommand rows, the usage lines
//! composed from them, the flag and argument helpers, and the exit
//! discipline. Both binaries declare `mod cli;`, so it is written once.
//!
//! Exit discipline: argument errors print the offending subcommand's
//! usage on stderr and exit 2; runtime failures (I/O, server errors)
//! print only the message and exit 1; success exits 0.

use std::process::ExitCode;

/// How a CLI invocation failed — the two classes exit differently.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The arguments were wrong: usage on stderr, exit 2.
    Usage,
    /// The arguments were fine but the work failed: message only, exit 1.
    Runtime,
}

/// A CLI failure: the kind, the message, and (once `run` has found the
/// subcommand's row) whose usage to print for usage errors.
#[derive(Debug)]
pub struct CmdError {
    pub cmd: Option<&'static str>,
    pub kind: ErrorKind,
    pub msg: String,
}

impl CmdError {
    pub fn exit_code(&self) -> u8 {
        match self.kind {
            ErrorKind::Usage => 2,
            ErrorKind::Runtime => 1,
        }
    }

    pub fn usage(msg: impl Into<String>) -> CmdError {
        CmdError {
            cmd: None,
            kind: ErrorKind::Usage,
            msg: msg.into(),
        }
    }

    pub fn runtime(msg: impl ToString) -> CmdError {
        CmdError {
            cmd: None,
            kind: ErrorKind::Runtime,
            msg: msg.to_string(),
        }
    }
}

/// `?`-friendly conversions: bare strings are argument-parsing errors
/// (the dominant case in the subcommand bodies), I/O errors are runtime.
impl From<String> for CmdError {
    fn from(msg: String) -> Self {
        CmdError::usage(msg)
    }
}

impl From<&str> for CmdError {
    fn from(msg: &str) -> Self {
        CmdError::usage(msg)
    }
}

impl From<std::io::Error> for CmdError {
    fn from(e: std::io::Error) -> Self {
        CmdError::runtime(e)
    }
}

pub type CmdResult = Result<(), CmdError>;

/// One subcommand: its name; its positional arguments as the usage line
/// shows them; the `--flag`s its handler strips, as the usage line shows
/// them (one written `--name <placeholder>` takes a value); the most
/// arguments that may be left once those are stripped; the handler.
pub type Row = (
    &'static str,
    &'static str,
    &'static [&'static str],
    usize,
    fn(&[String]) -> CmdResult,
);

/// One binary: its name (the first word of its usage lines), its
/// subcommand rows, and what to tell a caller who asks it for a command
/// it does not have (the other binary may have it).
pub struct Bin {
    pub name: &'static str,
    pub commands: &'static [Row],
    pub hint: fn(&str) -> Option<&'static str>,
}

/// Run the binary on the process arguments and turn the outcome into
/// its exit code.
pub fn main(bin: &Bin) -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(bin, &args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("error: {}", err.msg);
            // Usage errors (bad/missing arguments) get the usage dump;
            // runtime failures (I/O, server errors) already said what
            // went wrong — a usage block would only bury the message.
            if err.kind == ErrorKind::Usage {
                eprintln!();
                match err.cmd.and_then(|cmd| usage_for(bin, cmd)) {
                    // An argument error inside a known subcommand: show
                    // just that subcommand's usage, not the full block.
                    Some(usage) => eprintln!("usage:\n  {usage}"),
                    None => eprintln!("{}", full_usage(bin).trim_end()),
                }
            }
            ExitCode::from(err.exit_code())
        }
    }
}

fn usage_line(bin: &Bin, &(name, args, flags, ..): &Row) -> String {
    let mut line = format!("{} {name} {args}", bin.name);
    for flag in flags {
        line.push_str(&format!(" [{flag}]"));
    }
    // `lint` takes nothing.
    line.trim_end().to_string()
}

pub fn usage_for(bin: &Bin, cmd: &str) -> Option<String> {
    bin.commands
        .iter()
        .find(|row| row.0 == cmd)
        .map(|row| usage_line(bin, row))
}

fn full_usage(bin: &Bin) -> String {
    let mut out = String::from("usage:\n");
    for row in bin.commands {
        out.push_str("  ");
        out.push_str(&usage_line(bin, row));
        out.push('\n');
    }
    out
}

/// Strip the subcommand's `flags` from `args`: a `--` argument left over
/// names no flag the subcommand has, and more than `max` arguments left
/// is one too many. Both are errors here, for every subcommand, before
/// its handler opens a file or a socket. A bare `-` is a positional.
fn check_positionals(args: &[String], flags: &[&str], max: usize) -> Result<(), String> {
    let mut rest = args.to_vec();
    for flag in flags {
        rest = match flag.split_once(' ') {
            Some((valued, _)) => take_opt(&rest, valued.trim_start_matches('-'))?.0,
            None => take_flag(&rest, flag.trim_start_matches('-')).0,
        };
    }
    if let Some(unknown) = rest.iter().find(|a| a.starts_with("--")) {
        return Err(format!("unknown flag `{unknown}`"));
    }
    if rest.len() > max {
        return Err("unexpected extra arguments".into());
    }
    Ok(())
}

pub fn run(bin: &Bin, args: &[String]) -> CmdResult {
    let (cmd, rest) = args
        .split_first()
        .ok_or_else(|| CmdError::usage("missing command"))?;
    let Some(&(name, _, flags, max, handler)) = bin.commands.iter().find(|row| row.0 == cmd) else {
        let msg = format!("unknown command `{cmd}`");
        return Err(CmdError::usage(match (bin.hint)(cmd) {
            Some(hint) => format!("{msg}: {hint}"),
            None => msg,
        }));
    };
    check_positionals(rest, flags, max)
        .map_err(CmdError::from)
        .and_then(|()| handler(rest))
        .map_err(|e| CmdError {
            cmd: Some(name),
            ..e
        })
}

/// A Markov table's hop depth: a number, at least 2, as `MarkovTable`
/// requires.
pub fn parse_h(s: &str) -> Result<usize, String> {
    match s.parse() {
        Ok(h) if h >= 2 => Ok(h),
        _ => Err(format!("bad h `{s}`: a Markov table needs h >= 2")),
    }
}

pub fn arg<'a>(args: &'a [String], i: usize, what: &str) -> Result<&'a str, String> {
    args.get(i)
        .map(String::as_str)
        .ok_or_else(|| format!("missing {what}"))
}

/// Strip `--jobs N` (see [`take_opt`]) and return the worker count:
/// 1 (serial) without the flag, every available core for `--jobs 0`.
pub fn take_jobs(args: &[String]) -> Result<(Vec<String>, usize), String> {
    let (rest, value) = take_opt(args, "jobs")?;
    let jobs = match value {
        None => 1,
        Some(n) => match n.parse().map_err(|_| format!("bad --jobs value `{n}`"))? {
            // Explicit "all cores": uncapped, unlike the conservative
            // default_build_parallelism() used by implicit callers.
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            jobs => jobs,
        },
    };
    Ok((rest, jobs))
}

/// Strip a boolean `--<name>` flag from the argument list. A repeated
/// flag is harmless (idempotent), so it is not an error.
pub fn take_flag(args: &[String], name: &str) -> (Vec<String>, bool) {
    let flag = format!("--{name}");
    let rest: Vec<String> = args.iter().filter(|a| **a != flag).cloned().collect();
    let present = rest.len() != args.len();
    (rest, present)
}

/// Strip a valued `--<name> <value>` / `--<name>=<value>` option from the
/// argument list. A repeated option is an error (a silent last-one-wins
/// hides typos in scripts), and so is a flag-shaped value, so `--jobs
/// --foo` reports the missing value instead of a confusing parse failure.
pub fn take_opt(args: &[String], name: &str) -> Result<(Vec<String>, Option<String>), String> {
    let flag = format!("--{name}");
    let prefix = format!("--{name}=");
    let mut rest = Vec::with_capacity(args.len());
    let mut value: Option<String> = None;
    let mut set = |v: String| -> Result<(), String> {
        if value.replace(v).is_some() {
            return Err(format!("duplicate {flag} flag"));
        }
        Ok(())
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if *a == flag {
            let v = it.next().ok_or(format!("missing value after {flag}"))?;
            if v.starts_with('-') {
                return Err(format!(
                    "{flag} needs a value, got the flag-like token `{v}`"
                ));
            }
            set(v.clone())?;
        } else if let Some(v) = a.strip_prefix(&prefix) {
            if v.starts_with('-') {
                return Err(format!(
                    "{flag} needs a value, got the flag-like token `{v}`"
                ));
            }
            set(v.to_string())?;
        } else {
            rest.push(a.clone());
        }
    }
    Ok((rest, value))
}
