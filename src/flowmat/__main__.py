from flowmat.cli import run

run()
