"""C102: unpicklable handles captured into task code."""
import threading

lock = threading.Lock()


def guarded(x):
    with lock:
        return x + 1


rdd.map(guarded).collect()

fh = open("audit.log", "w")
rdd.map(lambda x: fh.write(str(x))).collect()
