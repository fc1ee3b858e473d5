"""A single-process, closed-loop client of `bmh_engine --serve`.

The client writes job lines to the server's stdin and reads one JSON record
per job from its stdout. It keeps at most `window` jobs in flight: the next
line leaves only when a record comes back. Latency is client-observed, from
writing a job's line to reading its record.
"""

import os
import subprocess
import time


class BenchError(RuntimeError):
    pass


def proc_cpu_seconds(pid):
    """User + system CPU of a live process, all threads."""
    with open(f"/proc/{pid}/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def proc_peak_rss_mb(pid):
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError("no VmHWM in /proc status")


def host_cpu_ticks():
    """(steal, total) ticks of all CPUs so far, from /proc/stat."""
    with open("/proc/stat") as f:
        ticks = [int(t) for t in f.readline().split()[1:9]]
    return ticks[7], sum(ticks)


class Server:
    """One `bmh_engine --serve` process. `index` counts the lines sent, which
    is the job index the server gives each record."""

    def __init__(self, binary, args, env, stderr_path):
        self.stderr_path = stderr_path
        with open(stderr_path, "wb") as err:
            self.proc = subprocess.Popen([binary, "--serve", *args], env=env,
                                         stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                         stderr=err)
        self.index = 0
        self.records = {}  # job index -> raw record bytes

    def run(self, lines, window):
        """Sends `lines` as a closed loop. Returns (start_ns, done_ns,
        latency_ns): when the pass began and, per line in line order, when
        its record arrived and how long after its line was written."""
        fd = self.proc.stdin.fileno()
        out = self.proc.stdout
        payload = [(line + "\n").encode() for line in lines]
        base = self.index
        sent_at = {}
        done = [0] * len(lines)
        latency = [0] * len(lines)
        nxt = 0
        start = time.perf_counter_ns()
        while nxt < len(payload) and nxt < window:
            sent_at[base + nxt] = time.perf_counter_ns()
            os.write(fd, payload[nxt])
            nxt += 1
        while sent_at:
            record = out.readline()
            now = time.perf_counter_ns()
            if not record:
                raise BenchError(f"server exited mid-run (see {self.stderr_path})")
            index = int(record[7:record.index(b",", 7)])  # {"job":N,...
            done[index - base] = now
            latency[index - base] = now - sent_at.pop(index)
            self.records[index] = record
            if nxt < len(payload):
                sent_at[base + nxt] = time.perf_counter_ns()
                os.write(fd, payload[nxt])
                nxt += 1
        self.index += len(lines)
        return start, done, latency

    def cpu_seconds(self):
        return proc_cpu_seconds(self.proc.pid)

    def peak_rss_mb(self):
        return proc_peak_rss_mb(self.proc.pid)

    def close(self, timeout=120):
        """Closes stdin, waits for the exit, and returns the stderr text.
        Raises unless the server exited 0."""
        self.proc.stdin.close()
        try:
            code = self.proc.wait(timeout=timeout)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
            self.proc.stdout.close()
        with open(self.stderr_path, errors="replace") as f:
            text = f.read()
        if code != 0:
            raise BenchError(f"bmh_engine exited {code}: {text[-2000:]}")
        return text

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
