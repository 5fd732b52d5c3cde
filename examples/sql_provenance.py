"""Provenance through the SQL front-end, persisted and reused offline.

Demonstrates the textual pipeline a downstream user would adopt:

1. declare a schema and load rows;
2. run an annotated SQL script (the hyperplane fragment of Section 2);
3. inspect the annotated rows, minimized per Proposition 5.5;
4. save the annotated database as JSON (the payload a server's ``state``
   reply carries) and answer a what-if from the file alone — no engine,
   no log, no re-run.

Run:  python examples/sql_provenance.py
"""

import json
import tempfile
from pathlib import Path

from repro import Database, Engine
from repro.core import evaluate, minimize
from repro.lang import format_sql_script, parse_sql_script
from repro.semantics import BooleanStructure
from repro.shard.codec import decode_capture, encode_capture

SCRIPT = """
-- seasonal maintenance, one annotated transaction per business action
BEGIN TRANSACTION clearance;
    UPDATE inventory SET price = 10 WHERE category = 'summer';
    DELETE FROM inventory WHERE category = 'discontinued';
COMMIT;

BEGIN TRANSACTION restock;
    INSERT INTO inventory VALUES ('scarf', 'winter', 25);
    UPDATE inventory SET price = 40 WHERE sku = 'parka';
COMMIT;
"""


def main() -> None:
    db = Database.from_rows(
        "inventory",
        ["sku", "category", "price"],
        [
            ("sunhat", "summer", 18),
            ("sandals", "summer", 35),
            ("parka", "winter", 120),
            ("pager", "discontinued", 5),
        ],
    )

    items = parse_sql_script(SCRIPT, db.schema)
    print("parsed script (round-tripped through the formatter):")
    print(format_sql_script(items, db.schema))

    engine = Engine(db, policy="normal_form")
    engine.apply(items)

    print("\nannotated inventory (minimized, Proposition 5.5):")
    for row, expr, live in sorted(engine.provenance("inventory"), key=repr):
        status = "live" if live else "gone"
        print(f"  [{status}] {row!r:38} {minimize(expr)}")

    # Persist the annotated state and throw the engine away.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "inventory.provenance.json"
        path.write_text(json.dumps(encode_capture(engine.capture())))
        print(f"\nsnapshot saved to {path.name} ({path.stat().st_size} bytes)")

        snapshot = decode_capture(json.loads(path.read_text()))
        # Offline what-if: abort the clearance transaction.
        structure = BooleanStructure()
        kept = lambda name: name != "clearance"  # noqa: E731
        print("inventory had 'clearance' never run (answered from the snapshot):")
        for row, (expr, _live) in sorted(snapshot["inventory"].items(), key=repr):
            if evaluate(expr, structure, kept):
                print(f"  {row}")


if __name__ == "__main__":
    main()
