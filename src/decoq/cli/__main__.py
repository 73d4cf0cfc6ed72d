from . import run
run()
