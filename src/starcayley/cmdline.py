"""Reads a command line against a table of commands, as argparse read it.

The CLI's table (:data:`starcayley.cli.COMMANDS`) names each command's
handler, positionals and options; :class:`Parser` reads a command line
against it and renders the usage lines and ``--help`` from it.  It takes what
argparse took for such a table: ``--opt value`` and ``--opt=value``, a unique
prefix of a long option, options before, between or after the positionals,
``--``, words that look like negative numbers as positionals or values, and
the last of a repeated option.  A malformed line gets argparse's usage and
error line on stderr, and exit 2.  Unlike argparse it imports only sys,
collections and types, which every route loads anyway: argparse loads
gettext and locale, and its help formatter shutil, in every process.  One
difference is deliberate: a value that is the word ``--`` (as in
``--out=--``) is that word, where argparse made it an empty list.
"""

from __future__ import annotations

import sys
from collections import namedtuple
from types import SimpleNamespace

Command = namedtuple("Command", "func help positionals options")
# convert is None for a flag, which is False unless given
Option = namedtuple("Option", "convert default choices required help metavar",
                    defaults=(None, False, "", None))

HELP = ("-h", "--help")
# argparse's width where the terminal is 80 columns wide or is no terminal
WIDTH = 78


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


def _invocation(flag: str, option: Option) -> str:
    if option.convert is None:
        return flag
    if option.metavar:
        return f"{flag} {option.metavar}"
    if option.choices:
        return f"{flag} {{{','.join(option.choices)}}}"
    return f"{flag} {_dest(flag).upper()}"


def _looks_negative(word: str) -> bool:
    """Whether argparse reads the word as a negative number: a minus, then
    decimal digits with at most one point and a digit after it, and perhaps a
    final newline, as its regular expression's $ allows."""
    whole, dot, fraction = (word[1:-1] if word.endswith("\n") else word[1:]).partition(".")
    if not dot:
        return whole.isdecimal()
    return fraction.isdecimal() and (not whole or whole.isdecimal())


class Parser:
    """A table of commands, as :func:`starcayley.cli.make_parser` builds it,
    and the reading of a command line against it."""

    def __init__(self, prog: str, description: str, commands: dict):
        self.prog = prog
        self.description = description
        self.commands = commands

    def parse_args(self, argv=None) -> SimpleNamespace:
        """The command line as `command`, `func`, and an attribute for every
        positional and option of the command, defaults included.  At the top
        level come -h and then the command, which takes every word after it."""
        words = sys.argv[1:] if argv is None else list(argv)
        top = dict.fromkeys(HELP)
        end = words.index("--") if "--" in words else len(words)
        extras = []
        for i, word in enumerate(words):
            if i == end:
                if i + 1 == len(words):
                    extras.append(word)
                    break
                # argparse reads a `--` before the command as the command
            elif (option := self._option_of(word, top, None)) is not None:
                flag, value = option
                if flag is None:
                    extras.append(word)
                else:
                    self._help_or_fail(None, flag, value)
                continue
            if word not in self.commands:
                self._fail(None, f"argument command: invalid choice: {word!r} "
                                 f"(choose from {', '.join(map(repr, self.commands))})")
            fields, unknown = self._parse_command(word, words[i + 1:])
            extras += unknown
            if extras:
                self.error(f"unrecognized arguments: {' '.join(extras)}")
            return SimpleNamespace(**fields)
        self.error("the following arguments are required: command")

    def error(self, message: str):
        """A check made after parsing failed: the top-level usage, as
        argparse's parser.error gives it."""
        self._fail(None, message)

    def _parse_command(self, command: str, words: list) -> tuple[dict, list]:
        """One command's words: its fields, defaults included, and the words
        it did not take."""
        spec = self.commands[command]
        flags = {**dict.fromkeys(HELP), **spec.options}
        end = words.index("--") if "--" in words else len(words)
        found = [self._option_of(word, flags, command) for word in words[:end]]
        fields = {"command": command}
        pending = list(spec.positionals)
        extras = []

        def take(indices: list) -> int:
            """Give the words at these indices to the positionals still pending."""
            taken = indices[:len(pending)]
            for j in taken:
                name, convert = pending.pop(0)
                fields[name] = self._convert(command, name, convert, words[j])
            return len(taken)

        i = 0
        last_option = max((j for j, option in enumerate(found) if option is not None),
                          default=-1)
        while i <= last_option:
            if found[i] is None:
                stop = next(j for j in range(i, end) if found[j] is not None)
                extras += words[i + take(list(range(i, stop))):stop]
                i = stop
            flag, value = found[i]
            i += 1
            if flag is None:
                extras.append(words[i - 1])
            elif flag in HELP:
                self._help_or_fail(command, flag, value)
            elif flags[flag].convert is None:
                if value is not None:
                    self._fail(command, f"argument {flag}: ignored explicit argument {value!r}")
                fields[_dest(flag)] = True
            else:
                if value is None:
                    if i == end or found[i] is not None:
                        self._fail(command, f"argument {flag}: expected one argument")
                    value, i = words[i], i + 1
                option = flags[flag]
                fields[_dest(flag)] = self._convert(command, flag, option.convert, value,
                                                    option.choices)
        # every word from i on is a positional but the `--`, which is dropped
        # only where the positionals taken reach up to it
        rest = [j for j in range(i, len(words)) if j != end]
        taken = take(rest)
        left = rest[taken:]
        if end < len(words) and not (taken and end - i <= taken):
            left = sorted([*left, end])
        extras += [words[j] for j in left]
        missing = [name for name, _ in pending]
        missing += [flag for flag, option in spec.options.items()
                    if option.required and _dest(flag) not in fields]
        if missing:
            self._fail(command, f"the following arguments are required: {', '.join(missing)}")
        for flag, option in spec.options.items():
            fields.setdefault(_dest(flag), option.default)
        fields["func"] = spec.func
        return fields, extras

    def _option_of(self, word: str, flags: dict, command: str | None):
        """How argparse reads a word before any `--`: None for a positional,
        else (flag, the value after its `=` or None), flag None for an
        unknown option.  A long prefix of more than one option is an error."""
        if not word.startswith("-") or word == "-":
            return None
        if word in flags:
            return word, None
        flag, equals, value = word.partition("=")
        if equals and flag in flags:
            return flag, value
        if word.startswith("--"):
            matches = [option for option in flags if option.startswith(flag)]
            value = value if equals else None
        else:
            # a one-letter option takes the rest of its word, as in -hh
            matches = [word[:2]] if word[:2] in flags else []
            value = word[2:]
        if len(matches) > 1:
            self._fail(command, f"ambiguous option: {word} could match {', '.join(matches)}")
        if matches:
            return matches[0], value
        if _looks_negative(word) or " " in word:
            return None
        return None, None

    def _convert(self, command: str, name: str, convert, text: str, choices=None):
        try:
            value = convert(text)
        except ValueError as exc:
            # argparse's words where a plain int fails, the converter's own elsewhere
            self._fail(command, f"argument {name}: "
                                + (f"invalid int value: {text!r}" if convert is int else str(exc)))
        if choices and value not in choices:
            self._fail(command, f"argument {name}: invalid choice: {value!r} "
                                f"(choose from {', '.join(map(repr, choices))})")
        return value

    def _help_or_fail(self, command: str | None, flag: str, value: str | None):
        """Print --help and exit 0, unless the flag was given a value.  -h
        reads the rest of its word as more one-letter options, and -h is the
        only one, so -hh is help and -hx is an error."""
        if value is not None:
            rest = value.lstrip("h") if flag == "-h" and value else value
            if rest or not value:
                self._fail(command, f"argument -h/--help: ignored explicit argument {rest!r}")
        sys.stdout.write(self._help(command))
        raise SystemExit(0)

    def _fail(self, command: str | None, message: str):
        """A malformed command line: the usage and one error line on stderr, exit 2."""
        prog = self.prog if command is None else f"{self.prog} {command}"
        sys.stderr.write(f"{self._usage(command)}{prog}: error: {message}\n")
        raise SystemExit(2)

    def _usage(self, command: str | None) -> str:
        """The usage lines, wrapped where argparse wraps them."""
        if command is None:
            prog, optional = self.prog, ["[-h]"]
            positional = ["{" + ",".join(self.commands) + "}", "..."]
        else:
            spec = self.commands[command]
            prog, positional = f"{self.prog} {command}", [name for name, _ in spec.positionals]
            optional = ["[-h]", *(_invocation(flag, option) if option.required
                                  else f"[{_invocation(flag, option)}]"
                                  for flag, option in spec.options.items())]
        line = " ".join(["usage:", prog, *optional, *positional])
        if len(line) <= WIDTH:
            return line + "\n"
        # the options fill lines after the prog, and the positionals start a line
        indent = " " * len(f"usage: {prog} ")
        lines = []
        for parts, current in ((optional, f"usage: {prog}"), (positional, "")):
            for part in parts:
                if current and len(current) + 1 + len(part) > WIDTH:
                    lines.append(current)
                    current = ""
                current = f"{current} {part}" if current else indent + part
            if current:
                lines.append(current)
        return "\n".join(lines) + "\n"

    def _help(self, command: str | None) -> str:
        """--help: the usage, a description, and a line for every argument."""
        if command is None:
            description, options = self.description, {}
            positional = [(2, "{" + ",".join(self.commands) + "}", ""),
                          *((4, name, spec.help) for name, spec in self.commands.items())]
        else:
            spec = self.commands[command]
            description, options = spec.help, spec.options
            positional = [(2, name, "") for name, _ in spec.positionals]
        # rows of (indent, invocation, help text)
        sections = [("positional arguments", positional),
                    ("options", [(2, "-h, --help", "show this help message and exit"),
                                 *((2, _invocation(flag, option), option.help)
                                   for flag, option in options.items())])]
        # the help column is two past the longest invocation, and no further than 24
        column = min(24, 2 + max(indent + len(invocation)
                                 for _, rows in sections for indent, invocation, _ in rows))
        blocks = [description]
        for title, rows in sections:
            if not rows:
                continue
            lines = [f"{title}:"]
            for indent, invocation, text in rows:
                head = " " * indent + invocation
                if not text:
                    lines.append(head)
                elif len(head) <= column - 2:
                    lines.append(f"{head:<{column}}{text}")
                else:
                    lines += [head, " " * column + text]
            blocks.append("\n".join(lines))
        return self._usage(command) + "\n" + "\n\n".join(blocks) + "\n"
