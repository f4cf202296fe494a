"""The protocol pairs: parameterized-system examples over {r, e, x}.

Each letter is one process's action: r requests the critical section, e
enters it and x exits.  `proc` is the process template, P in every pair:
a component is one process's run, and a shuffle of components is a run of
any number of processes.  V is a safety property of the whole run, and a
pair is closed when removing one process from a run that keeps the
property leaves a run that keeps it.

* `sem(b)`: at most b processes in the critical section at once.
* `pend(b)`: at most b requests pending, made and not yet entered.
* `serve`: a request is entered before the next request is made.
* `even`: an even number of exits in all; removing a process removes its
  exits, one for each round it made, so the pair fails.
"""

from conftest import mk_dfa

ALPHABET = "rex"


def proc():
    # i (idle) -r-> w (waiting) -e-> c (critical) -x-> i; a process's run
    # ends idle
    return mk_dfa(ALPHABET, [("i", "r", "w"), ("w", "e", "c"), ("c", "x", "i")],
                  "i", ["i"])


def sem(b: int):
    # the state counts the processes in the critical section; r loops
    trans = [(str(j), "r", str(j)) for j in range(b + 1)]
    trans += [(str(j), "e", str(j + 1)) for j in range(b)]
    trans += [(str(j + 1), "x", str(j)) for j in range(b)]
    return mk_dfa(ALPHABET, trans, "0", [], "semiautomaton")


def pend(b: int):
    # the state counts the pending requests; x loops
    trans = [(str(j), "r", str(j + 1)) for j in range(b)]
    trans += [(str(j + 1), "e", str(j)) for j in range(b)]
    trans += [(str(j), "x", str(j)) for j in range(b + 1)]
    return mk_dfa(ALPHABET, trans, "0", [], "semiautomaton")


def serve():
    # f (free) -r-> p (pending) -e-> f; e and x read freely otherwise
    return mk_dfa(
        ALPHABET,
        [("f", "r", "p"), ("p", "e", "f"), ("f", "e", "f"), ("f", "x", "f"),
         ("p", "x", "p")],
        "f", [], "semiautomaton",
    )


def even():
    # the parity of the exits; r and e loop
    trans = [(q, a, q) for q in "01" for a in "re"]
    trans += [("0", "x", "1"), ("1", "x", "0")]
    return mk_dfa(ALPHABET, trans, "0", ["0"])
