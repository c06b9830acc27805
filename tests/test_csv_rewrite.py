"""``tests/csv_rewrite.py`` runs end to end at a small size and leaves no file."""

from csv_rewrite import main


def test_csv_rewrite_prints_both_medians_and_the_mount(tmp_path, capsys):
    main(["10000", str(tmp_path)])
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["rewrite", "new", "mount"]
    assert list(tmp_path.iterdir()) == []
