"""Compare two JSON reports leaf key by leaf key.

    python scripts/golden_diff.py OLD.json NEW.json

Prints every added, removed and changed leaf key (dotted path; a list is one
leaf), then the leaf counts.  Exits 1 if a key of OLD changed or vanished,
0 if NEW only adds keys.  Standard library only.
"""
import json
import sys


def leaves(node, path=""):
    """{dotted path: value} of every leaf of a parsed JSON document."""
    if isinstance(node, dict) and node:
        return {k: v for key, child in node.items()
                for k, v in leaves(child, f"{path}.{key}" if path else key).items()}
    return {path: node}


def main(old_path, new_path):
    with open(old_path) as fh:
        old = leaves(json.load(fh))
    with open(new_path) as fh:
        new = leaves(json.load(fh))
    for key in sorted(new.keys() - old.keys()):
        print(f"added    {key} = {json.dumps(new[key])}")
    for key in sorted(old.keys() - new.keys()):
        print(f"removed  {key} = {json.dumps(old[key])}")
    changed = sorted(k for k in old.keys() & new.keys() if old[k] != new[k])
    for key in changed:
        print(f"changed  {key}: {json.dumps(old[key])} -> {json.dumps(new[key])}")
    print(f"{len(old)} leaf keys before, {len(new)} after")
    return 1 if changed or old.keys() - new.keys() else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(*sys.argv[1:]))
