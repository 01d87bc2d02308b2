import importlib.util
import json
import os

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
_spec = importlib.util.spec_from_file_location("regenerate",
                                               os.path.join(GOLDEN, "regenerate.py"))
regenerate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regenerate)


def test_cli_outputs_match_the_golden_corpus():
    # every command of the corpus prints the same bytes and exits the same way;
    # an intended change regenerates the corpus (tests/golden/regenerate.py)
    with open(regenerate.CORPUS, encoding="utf-8") as fh:
        records = json.load(fh)
    assert [r["argv"] for r in records] == regenerate.commands()
    differ = [r["argv"] for r in records if regenerate.run(r["argv"]) != r]
    assert not differ, "%d of %d commands differ, first: lieform %s" % (
        len(differ), len(records), " ".join(differ[0]))
