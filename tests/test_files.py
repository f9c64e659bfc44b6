import os

import pytest

from pacerose.files import write_atomic


def test_chunks_are_written_in_order(tmp_path):
    path = tmp_path / "out.csv"
    write_atomic(path, (f"{i},{i * i}\n" for i in range(5)))
    assert path.read_text() == "0,0\n1,1\n2,4\n3,9\n4,16\n"
    write_atomic(path, "one string\n")
    assert path.read_text() == "one string\n"


def test_failing_chunks_keep_the_earlier_file(tmp_path):
    class Interrupted(Exception):
        pass

    def chunks():
        yield "header\n"
        raise Interrupted

    path = tmp_path / "trips.csv"
    path.write_text("earlier trips\n")
    with pytest.raises(Interrupted):
        write_atomic(path, chunks())
    assert path.read_text() == "earlier trips\n"
    assert os.listdir(tmp_path) == ["trips.csv"]
