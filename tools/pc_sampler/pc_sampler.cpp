// pc_sampler: a statistical CPU profiler loaded with LD_PRELOAD.
//
// While the host program runs, setitimer(ITIMER_PROF) raises SIGPROF every
// millisecond of the process's CPU time. The handler records the
// interrupted program counter and walks the frame pointer chain for the
// return addresses above it, into a buffer mapped at load time. At exit the
// library writes the samples and the load address of every module to
// pc_sampler.<pid>.txt in the working directory; report.py turns such files
// into self and inclusive shares by function and by line.
//
// It acts on its own process only: no perf_event, no ptrace, no system-wide
// setting. The walk needs frame pointers, so build the program with
// -fno-omit-frame-pointer (and -g for line numbers). Only the thread that
// loaded the library is walked (its stack bounds are known); samples that
// land on another thread keep their program counter alone.
//
// Output format, one record per line:
//   module <start> <end> <bias> <path>   an executable PT_LOAD segment
//   sample <pc> <ret1> <ret2> ...        innermost first, hex addresses
//   dropped <n>                          samples lost to a full buffer
#include <link.h>
#include <pthread.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>

namespace {

constexpr long kIntervalUsec = 1000;  ///< CPU time between samples.
constexpr std::size_t kMaxDepth = 64;
/// Words of sample storage: 4M words (32 MiB of address space; only the
/// pages actually written count towards the resident set).
constexpr std::size_t kBufferWords = std::size_t{1} << 22;

std::uintptr_t* g_buf = nullptr;
std::atomic<std::size_t> g_used{0};
std::atomic<std::uint64_t> g_dropped{0};
std::uintptr_t g_stack_lo = 0;
std::uintptr_t g_stack_hi = 0;
pthread_t g_main_thread;
bool g_active = false;

void pc_and_fp(const ucontext_t* uc, std::uintptr_t& pc, std::uintptr_t& fp,
               std::uintptr_t& sp) {
#if defined(__x86_64__)
  pc = static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
  fp = static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RBP]);
  sp = static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RSP]);
#elif defined(__aarch64__)
  pc = static_cast<std::uintptr_t>(uc->uc_mcontext.pc);
  fp = static_cast<std::uintptr_t>(uc->uc_mcontext.regs[29]);
  sp = static_cast<std::uintptr_t>(uc->uc_mcontext.sp);
#else
#error "pc_sampler supports x86-64 and AArch64"
#endif
}

/// A frame record {saved fp, return address} at `fp` may be read only if
/// it lies wholly inside the walked thread's stack, above the interrupted
/// stack pointer.
bool readable_frame(std::uintptr_t fp, std::uintptr_t sp) {
  return fp >= sp && fp % sizeof(std::uintptr_t) == 0 &&
         fp >= g_stack_lo && fp + 2 * sizeof(std::uintptr_t) <= g_stack_hi;
}

void on_sigprof(int /*sig*/, siginfo_t* /*info*/, void* ctx) {
  const int saved_errno = errno;
  std::uintptr_t frames[kMaxDepth];
  std::size_t depth = 0;
  std::uintptr_t pc = 0;
  std::uintptr_t fp = 0;
  std::uintptr_t sp = 0;
  pc_and_fp(static_cast<const ucontext_t*>(ctx), pc, fp, sp);
  frames[depth++] = pc;
  if (pthread_equal(pthread_self(), g_main_thread)) {
    while (depth < kMaxDepth && readable_frame(fp, sp)) {
      const auto* record = reinterpret_cast<const std::uintptr_t*>(fp);
      const std::uintptr_t next = record[0];
      const std::uintptr_t ret = record[1];
      if (ret == 0) break;
      frames[depth++] = ret;
      if (next <= fp) break;  // Frames grow towards higher addresses.
      sp = fp;
      fp = next;
    }
  }
  // One word of length, then the frames; a full buffer drops the sample.
  const std::size_t start = g_used.fetch_add(depth + 1);
  if (start + depth + 1 > kBufferWords) {
    g_dropped.fetch_add(1);
  } else {
    g_buf[start] = depth;
    std::memcpy(&g_buf[start + 1], frames, depth * sizeof(std::uintptr_t));
  }
  errno = saved_errno;
}

char g_exe[4096];

int write_module(dl_phdr_info* info, std::size_t /*size*/, void* data) {
  auto* out = static_cast<FILE*>(data);
  const char* path = info->dlpi_name;
  if (path == nullptr || path[0] == '\0') path = g_exe;  // The executable.
  for (int i = 0; i < info->dlpi_phnum; ++i) {
    const ElfW(Phdr)& ph = info->dlpi_phdr[i];
    if (ph.p_type != PT_LOAD || (ph.p_flags & PF_X) == 0) continue;
    const std::uintptr_t start = info->dlpi_addr + ph.p_vaddr;
    std::fprintf(out, "module %lx %lx %lx %s\n",
                 static_cast<unsigned long>(start),
                 static_cast<unsigned long>(start + ph.p_memsz),
                 static_cast<unsigned long>(info->dlpi_addr), path);
  }
  return 0;
}

__attribute__((constructor)) void pc_sampler_start() {
  g_main_thread = pthread_self();
  pthread_attr_t attr;
  if (pthread_getattr_np(g_main_thread, &attr) == 0) {
    void* addr = nullptr;
    std::size_t size = 0;
    if (pthread_attr_getstack(&attr, &addr, &size) == 0) {
      g_stack_lo = reinterpret_cast<std::uintptr_t>(addr);
      g_stack_hi = g_stack_lo + size;
    }
    pthread_attr_destroy(&attr);
  }
  void* buf = mmap(nullptr, kBufferWords * sizeof(std::uintptr_t),
                   PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (buf == MAP_FAILED) {
    std::fprintf(stderr, "pc_sampler: cannot map the sample buffer\n");
    return;
  }
  g_buf = static_cast<std::uintptr_t*>(buf);

  struct sigaction sa;
  std::memset(&sa, 0, sizeof sa);
  sa.sa_sigaction = on_sigprof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  if (sigaction(SIGPROF, &sa, nullptr) != 0) return;

  itimerval timer;
  timer.it_interval.tv_sec = 0;
  timer.it_interval.tv_usec = kIntervalUsec;
  timer.it_value = timer.it_interval;
  g_active = setitimer(ITIMER_PROF, &timer, nullptr) == 0;
}

__attribute__((destructor)) void pc_sampler_dump() {
  if (!g_active) return;
  itimerval off;
  std::memset(&off, 0, sizeof off);
  setitimer(ITIMER_PROF, &off, nullptr);
  signal(SIGPROF, SIG_IGN);

  char path[64];
  std::snprintf(path, sizeof path, "pc_sampler.%d.txt",
                static_cast<int>(getpid()));
  FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "pc_sampler: cannot write %s\n", path);
    return;
  }
  const ssize_t n = readlink("/proc/self/exe", g_exe, sizeof g_exe - 1);
  g_exe[n > 0 ? n : 0] = '\0';
  dl_iterate_phdr(write_module, out);
  const std::size_t used = g_used.load();
  std::size_t samples = 0;
  for (std::size_t i = 0; i < used && i < kBufferWords;) {
    const std::size_t depth = g_buf[i];
    if (depth == 0 || i + 1 + depth > kBufferWords) break;
    std::fputs("sample", out);
    for (std::size_t k = 0; k < depth; ++k) {
      std::fprintf(out, " %lx", static_cast<unsigned long>(g_buf[i + 1 + k]));
    }
    std::fputc('\n', out);
    i += depth + 1;
    ++samples;
  }
  std::fprintf(out, "dropped %llu\n",
               static_cast<unsigned long long>(g_dropped.load()));
  std::fclose(out);
  std::fprintf(stderr, "pc_sampler: %zu samples written to %s\n", samples,
               path);
}

}  // namespace
