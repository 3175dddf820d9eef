"""A command line read from one table in one pass over ``argv``.

The table lists the global options and, per command, its positional and
its options (:class:`Arg`).  Global options come before the command, the
command's options and positional after it, in any order.  ``--opt value``,
``--opt=value`` and a unique prefix of a long option are accepted, and
``--`` ends the options.  ``-h``/``--help`` prints the help of its level
to stdout and exits 0; a usage error prints the usage line of its level
and one ``<prog>: error: ...`` line to stderr and exits 2.

Every finmot call is a fresh process, and the standard library's parser
cost about 2 ms of each: its import, and the gettext lookup of its first
message, which imports locale.  The engine is a module of its own
because a process that compiles finmot from source reaches its peak RSS
while compiling ``cli``, the largest module.
"""

from __future__ import annotations

import sys
from collections.abc import Callable, Iterable
from typing import NamedTuple


class Arg(NamedTuple):
    """One row of the table: an option ``--name``, or a positional ``name``.
    A positional, and an option marked ``required``, must be given."""

    name: str
    convert: Callable[[str], object] | None
    default: object = None
    metavar: str = ""
    help: str = ""
    required: bool = False


def integer(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"invalid int value: {text!r}") from None


def choice(options, convert=str):
    """A converter that admits only ``options``, compared after ``convert``."""
    def pick(text: str):
        value = convert(text)
        if value not in options:
            raise ValueError(f"invalid choice: {value!r} (choose from "
                             f"{', '.join(map(repr, options))})")
        return value
    return pick


_HELP = Arg("--help", None, help="show this help message and exit")


def _is_option(token: str) -> bool:
    """A token that starts with "-" names an option, unless it is "-" alone or
    a negative number such as "-1", which are values."""
    return token[:1] == "-" and token != "-" and not token[1:].replace(".", "", 1).isdigit()


def _wrap(words: Iterable[str], width: int) -> list[str]:
    """``words`` filled greedily into lines of at most ``width`` columns."""
    lines = [""]
    for word in words:
        if lines[-1] and len(lines[-1]) + 1 + len(word) > width:
            lines.append(word)
        else:
            lines[-1] = f"{lines[-1]} {word}" if lines[-1] else word
    return lines


class CommandLine:
    """``commands`` maps each command to its summary and its arguments."""

    def __init__(self, prog: str, description: str, options: tuple[Arg, ...],
                 commands: dict[str, tuple[str, tuple[Arg, ...]]]):
        self.prog = prog
        self.description = description
        self.options = options
        self.commands = commands
        self.command = Arg("command", choice(tuple(commands)),
                           metavar="{" + ",".join(commands) + "} ...")

    def arguments(self, command: str | None) -> tuple[Arg, ...]:
        if command is None:
            return self.options + (self.command,)
        return self.commands[command][1]

    def usage(self, command: str | None) -> str:
        prefix = f"usage: {self.prog} " + ("" if command is None else f"{command} ")
        args = self.arguments(command)
        words = ["[-h]"]
        for a in args:
            if a.name[0] == "-":
                words.append(f"{a.name} {a.metavar}" if a.required
                             else f"[{a.name} {a.metavar}]")
        words += [a.metavar for a in args if a.name[0] != "-"]
        lines = _wrap(words, 79 - len(prefix))
        return prefix + ("\n" + " " * len(prefix)).join(lines) + "\n"

    def help(self, command: str | None) -> str:
        args = self.arguments(command)
        if command is None:
            summary = self.description
            sections = [("commands", [(name, c[0]) for name, c in self.commands.items()])]
        else:
            summary = self.commands[command][0]
            sections = [("positional arguments",
                         [(a.metavar, a.help) for a in args if a.name[0] != "-"])]
        sections.append(("options", [("-h, --help", _HELP.help)] + [
            (f"{a.name} {a.metavar}", a.help) for a in args if a.name[0] == "-"]))
        lines = [self.usage(command), summary]
        for title, rows in sections:
            if not rows:
                continue
            lines.append(f"\n{title}:")
            for left, text in rows:
                # each help starts at column 24, on a line of its own below a long name
                body = _wrap(text.split(), 79 - 24) if text else []
                head = f"  {left}"
                if body and len(head) <= 22:
                    lines.append(head.ljust(24) + body.pop(0))
                else:
                    lines.append(head)
                lines += [" " * 24 + line for line in body]
        return "\n".join(lines) + "\n"

    def fail(self, command: str | None, message: str):
        """Report a usage error under ``command``'s usage line and exit 2."""
        sys.stderr.write(f"{self.usage(command)}{self.prog}: error: {message}\n")
        raise SystemExit(2)

    def _lookup(self, command: str | None, name: str) -> Arg | None:
        """The option ``name`` names at this level: exactly, or as the unique
        prefix of a long option; None if it names none or several."""
        if name == "-h":
            return _HELP
        options = [a for a in self.arguments(command) if a.name[0] == "-"] + [_HELP]
        for a in options:
            if a.name == name:
                return a
        matches = [a for a in options if name[:2] == "--" and a.name.startswith(name)]
        return matches[0] if len(matches) == 1 else None

    def _convert(self, command: str | None, arg: Arg, text: str):
        try:
            return arg.convert(text)
        except ValueError as exc:
            self.fail(command, f"argument {arg.name}: {exc}")

    def parse(self, argv: Iterable[str]) -> tuple[str, dict, dict]:
        """The command, the global options' values and the command's, each
        keyed by its name without dashes, defaults filled in."""
        tokens = iter(argv)
        command = None
        values = {}
        waiting = [self.command]  # the positionals still to come at this level
        extras = []
        options_ended = False
        for token in tokens:
            if token == "--" and not options_ended:
                options_ended = True
                continue
            if not options_ended and _is_option(token):
                name, eq, text = (token.partition("=") if token[:2] == "--"
                                  else (token, "", ""))
                arg = self._lookup(command, name)
                if arg is None:
                    extras.append(token)
                    continue
                if arg is _HELP:
                    sys.stdout.write(self.help(command))
                    raise SystemExit(0)
                if not eq:
                    text = next(tokens, None)
                    if text is None or _is_option(text):
                        self.fail(command, f"argument {arg.name}: expected one argument")
            elif waiting:
                arg, text = waiting.pop(0), token
            else:
                extras.append(token)
                continue
            value = self._convert(command, arg, text)
            if arg is self.command:
                command = value
                waiting = [a for a in self.arguments(command) if a.name[0] != "-"]
            else:
                values[arg.name] = value
        if command is None:
            self.fail(None, "the following arguments are required: command")
        args = self.arguments(command)
        missing = [a.name for a in args
                   if (a.required or a.name[0] != "-") and a.name not in values]
        if missing:
            self.fail(command,
                      f"the following arguments are required: {', '.join(missing)}")
        if extras:
            self.fail(command, f"unrecognized arguments: {' '.join(extras)}")
        given = {a.name.lstrip("-"): values.get(a.name, a.default) for a in self.options}
        own = {a.name.lstrip("-"): values.get(a.name, a.default) for a in args}
        return command, given, own
