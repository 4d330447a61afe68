"""Elliptical coordination, lexicon files and the command line.

Run with:  python3 demos/06_stripping_and_lexicon.py
"""

import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from frobcoord import (SpaceAssignment, evaluate_sentence, parse_lexicon,
                       parse_type, random_tensor, save_lexicon,
                       stripping_sentence)

# "john likes poe, and lovecraft as well" omits the repeated material but
# means the same as "john likes (poe and lovecraft)".
spaces = SpaceAssignment({"n": 3, "s": 2})
rng = np.random.default_rng(4)
noun, tv = parse_type("n"), parse_type("n.r s n.l")
john = random_tensor(spaces.wires(noun), rng)
likes = random_tensor(spaces.wires(tv), rng)
poe = random_tensor(spaces.wires(noun), rng)
lovecraft = random_tensor(spaces.wires(noun), rng)

stripped = stripping_sentence(john, likes, poe, lovecraft, spaces)
compact = np.einsum("i,ikl,l->k", john.array, likes.array,
                    poe.array * lovecraft.array)
assert np.allclose(stripped.array, compact)
print("stripped sentence:", stripped.array)

# Word tensors live in line-oriented lexicon files.  @random(seed) draws a
# reproducible tensor, @conj declares a coordinator (contracted as spiders).
text = """#semiring real
#type n 2
#type s 2
john : n = [1.0, 0.25]
sleeps : n.r s = @random(1)
snores : n.r s = @random(2)
and : s.r n.r.r n.r s s.l n = @conj
"""
lexicon = parse_lexicon(text)
meaning = evaluate_sentence(["john", "sleeps", "and", "snores"], lexicon,
                            "s", mode="closed-form")
print("from the lexicon:  ", meaning.array)

# The same pipeline is scriptable through the CLI.
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "demo.lex"
    save_lexicon(lexicon, path)
    for args in (["check", str(path), "john", "sleeps", "and", "snores"],
                 ["eval", str(path), "john", "sleeps", "and", "snores",
                  "--compare"]):
        proc = subprocess.run([sys.executable, "-m", "frobcoord", *args],
                              capture_output=True, text=True)
        print(f"$ frobcoord {' '.join(args[:1] + ['demo.lex'] + args[2:])}")
        print(proc.stdout, end="")
