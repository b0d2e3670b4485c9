"""``tools/verb_diff.py``'s parsed field diff on two tiny files."""

import importlib.util
import math
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "verb_diff.py"
_spec = importlib.util.spec_from_file_location("verb_diff", _PATH)
verb_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(verb_diff)

OLD_CSV = "# schema: t/1\n# seed: 7\nstep,x,accepted\n0,1.0,1\n1,2.0,0\n2,nan,1\n"
NEW_CSV = "# schema: t/1\n# seed: 8\nstep,x,accepted\n0,1.0,1\n1,2.5,0\n2,nan,0\n"


def by_field(groups):
    return {g["field"]: g for g in groups}


class TestDiffFields:
    def test_identical_files_have_no_diff(self):
        assert verb_diff.diff_fields("a.csv", OLD_CSV, OLD_CSV) == []
        assert verb_diff.diff_fields("a.json", '{"a": [1, 2.0]}', '{"a": [1, 2.0]}') == []

    def test_csv_columns_and_comments(self):
        groups = by_field(verb_diff.diff_fields("samples.csv", OLD_CSV, NEW_CSV))
        assert sorted(groups) == ["#seed", "accepted[]", "x[]"]
        x = groups["x[]"]
        # the NaN pair counts as equal; only row 1 moves, by 0.5 of 2.0
        assert (x["n"], x["n_diff"], x["max_abs"], x["max_rel"]) == (3, 1, 0.5, 0.25)
        assert x["example"] == ("x[1]", 2.0, 2.5)
        assert groups["accepted[]"]["example"] == ("accepted[2]", 1, 0)
        assert groups["#seed"]["example"] == ("#seed", "7", "8")
        assert groups["#seed"]["max_abs"] is None

    def test_json_leaves_with_lists_folded(self):
        old = '{"ess": [100.0, 200.0], "meta": {"rate": 0.5, "name": "w2"}, "n": 3}'
        new = '{"ess": [100.0, 150.0], "meta": {"rate": 0.0, "name": "w2"}, "extra": true}'
        groups = by_field(verb_diff.diff_fields("summary.json", old, new))
        assert sorted(groups) == ["ess[]", "extra", "meta.rate", "n"]
        assert (groups["ess[]"]["n_diff"], groups["ess[]"]["max_abs"], groups["ess[]"]["max_rel"]) == (1, 50.0, 0.25)
        assert groups["meta.rate"]["max_rel"] == 1.0
        assert groups["n"]["example"] == ("n", 3, "<missing>")
        assert groups["extra"]["example"] == ("extra", "<missing>", True)

    def test_jsonl_lines_and_non_finite_change(self):
        old = '{"v": 1.0}\n{"v": 0.0}\n'
        new = '{"v": 1.0}\n{"v": Infinity}\n'
        (group,) = verb_diff.diff_fields("campaign.jsonl", old, new)
        assert group["field"] == "[].v"
        assert (group["n"], group["n_diff"]) == (2, 1)
        assert math.isinf(group["max_abs"]) and math.isinf(group["max_rel"])
