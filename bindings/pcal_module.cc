// The `pcal` Python module: the api/pcal.h facade over the C API, so a
// notebook can drive single runs and grid sweeps through exactly the
// code path pcalsim and pcalsweep take (docs/PYTHON.md).
//
// Deliberately raw CPython (no pybind11 dependency): four functions and
// plain dict/list/str values are the whole surface, and keeping the
// binding dependency-free means it builds anywhere the interpreter's
// headers exist.  The GIL is released for the duration of every
// simulation, so sweep(workers=N) genuinely runs N C++ worker threads.
//
//   pcal.version()                      -> "1.0"
//   pcal.knows(key)                     -> bool
//   pcal.validate(entries)              -> [{key, value, reason}, ...]
//   pcal.run(entries, aging=, timeline=)      -> result dict
//   pcal.sweep(spec_text, workers=, name=, aging=, timeline_dir=)
//                                       -> sweep dict (rows match
//                                          pcalsweep's BENCH records)
//
// `entries` is a dict or a (key, value) sequence in the shared sweep
// vocabulary; values are str()-ed, so 8192, "8k" and True all work.
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <sys/stat.h>

#include <cerrno>
#include <cstring>
#include <exception>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "api/pcal.h"
#include "api/timeline.h"
#include "core/result_fields.h"
#include "core/run_assembly.h"

namespace {

using pcal::api::ConfigIssue;
using pcal::api::RunConfig;

PyObject* g_error = nullptr;  // pcal.Error (a ValueError subclass)

/// dict[key] = value, stealing the value reference.  False (with the
/// Python error set) when value is null or the insert fails.
bool set_item(PyObject* dict, const char* key, PyObject* value) {
  if (value == nullptr) return false;
  const int rc = PyDict_SetItemString(dict, key, value);
  Py_DECREF(value);
  return rc == 0;
}

PyObject* py_str(const std::string& s) {
  return PyUnicode_FromStringAndSize(s.data(), (Py_ssize_t)s.size());
}

bool set_str(PyObject* dict, const char* key, const std::string& s) {
  return set_item(dict, key, py_str(s));
}

bool set_u64(PyObject* dict, const char* key, std::uint64_t v) {
  return set_item(dict, key, PyLong_FromUnsignedLongLong(v));
}

bool set_f64(PyObject* dict, const char* key, double v) {
  return set_item(dict, key, PyFloat_FromDouble(v));
}

/// One config entry value: anything str()-able ("8k", 8192, 0.5, True —
/// str(True) == "True", which the shared boolean parser accepts).
bool value_to_string(PyObject* obj, std::string* out) {
  PyObject* str = PyObject_Str(obj);
  if (str == nullptr) return false;
  Py_ssize_t size = 0;
  const char* data = PyUnicode_AsUTF8AndSize(str, &size);
  if (data == nullptr) {
    Py_DECREF(str);
    return false;
  }
  out->assign(data, (std::size_t)size);
  Py_DECREF(str);
  return true;
}

/// Fills `rc` from a dict or a sequence of (key, value) pairs.
bool entries_to_config(PyObject* obj, RunConfig* rc) {
  if (PyDict_Check(obj)) {
    PyObject *key, *value;
    Py_ssize_t pos = 0;
    while (PyDict_Next(obj, &pos, &key, &value)) {
      std::string k, v;
      if (!value_to_string(key, &k) || !value_to_string(value, &v))
        return false;
      rc->set(k, v);
    }
    return true;
  }
  PyObject* seq = PySequence_Fast(obj, "entries must be a dict or a "
                                       "sequence of (key, value) pairs");
  if (seq == nullptr) return false;
  const Py_ssize_t n = PySequence_Fast_GET_SIZE(seq);
  for (Py_ssize_t i = 0; i < n; ++i) {
    PyObject* pair =
        PySequence_Fast(PySequence_Fast_GET_ITEM(seq, i),
                        "each entry must be a (key, value) pair");
    if (pair == nullptr || PySequence_Fast_GET_SIZE(pair) != 2) {
      Py_XDECREF(pair);
      Py_DECREF(seq);
      if (!PyErr_Occurred())
        PyErr_SetString(PyExc_TypeError,
                        "each entry must be a (key, value) pair");
      return false;
    }
    std::string k, v;
    const bool ok = value_to_string(PySequence_Fast_GET_ITEM(pair, 0), &k) &&
                    value_to_string(PySequence_Fast_GET_ITEM(pair, 1), &v);
    Py_DECREF(pair);
    if (!ok) {
      Py_DECREF(seq);
      return false;
    }
    rc->set(k, v);
  }
  Py_DECREF(seq);
  return true;
}

/// A new list of `n` items made by `make(i)`, each a new reference; null
/// (with the Python error set) if the list or any item cannot be made.
template <class Make>
PyObject* make_list(std::size_t n, Make&& make) {
  PyObject* list = PyList_New((Py_ssize_t)n);
  for (std::size_t i = 0; list != nullptr && i < n; ++i) {
    PyObject* item = make(i);
    if (item == nullptr)
      Py_CLEAR(list);
    else
      PyList_SET_ITEM(list, (Py_ssize_t)i, item);  // steals item
  }
  return list;
}

/// A new dict filled by `fill(d)`; null when `fill` reports failure.
template <class Fill>
PyObject* make_dict(Fill&& fill) {
  PyObject* d = PyDict_New();
  if (d != nullptr && !fill(d)) Py_CLEAR(d);
  return d;
}

PyObject* issues_to_list(const std::vector<ConfigIssue>& issues) {
  return make_list(issues.size(), [&](std::size_t i) {
    return make_dict([&](PyObject* d) {
      return set_str(d, "key", issues[i].key) &&
             set_str(d, "value", issues[i].value) &&
             set_str(d, "reason", issues[i].reason);
    });
  });
}

/// One metric table's entries, under their wire names.
template <class R, std::size_t N>
bool set_metrics(PyObject* d, const pcal::Metric<R> (&table)[N], const R& r) {
  for (const pcal::Metric<R>& m : table) {
    const bool ok = m.u64 != nullptr ? set_u64(d, m.name, m.u64(r))
                                     : set_f64(d, m.name, m.f64(r));
    if (!ok) return false;
  }
  return true;
}

/// The result dict: write_result_row's scalars under the same names,
/// plus the per-level (CacheStats fields + units) and per-core
/// breakdowns a JSON row flattens away.
PyObject* result_to_dict(const pcal::SimResult& r,
                         const std::vector<pcal::CoreResult>& cores) {
  const auto level = [&](std::size_t i) {
    return make_dict([&](PyObject* d) {
      bool ok = true;
      pcal::for_each_field(r.level_stats[i], [&](const char* name,
                                                 std::uint64_t v) {
        ok = ok && set_u64(d, name, v);
      });
      return ok && (i >= r.level_units.size() ||
                    set_u64(d, "units", r.level_units[i]));
    });
  };
  const auto core = [&](std::size_t k) {
    return make_dict([&](PyObject* d) {
      return set_str(d, "workload", cores[k].workload) &&
             set_metrics(d, pcal::kCoreMetrics, cores[k]);
    });
  };
  return make_dict([&](PyObject* d) {
    return set_str(d, "workload", r.workload) &&
           set_str(d, "config", r.config_label) &&
           set_metrics(d, pcal::kResultMetrics, r) &&
           set_item(d, "levels", make_list(r.level_stats.size(), level)) &&
           set_item(d, "cores", make_list(cores.size(), core));
  });
}

/// mkdir -p (one level) for timeline_dir, matching pcalsweep.
bool ensure_dir(const std::string& dir) {
  if (mkdir(dir.c_str(), 0777) == 0 || errno == EEXIST) return true;
  PyErr_Format(g_error, "cannot create timeline dir %s: %s", dir.c_str(),
               std::strerror(errno));
  return false;
}

PyObject* raise_pcal_error(const std::exception& e) {
  PyErr_SetString(g_error, e.what());
  return nullptr;
}

/// Runs `fn` with the GIL released.  A C++ exception must not unwind
/// through Py_BEGIN/END_ALLOW_THREADS (it would skip re-acquiring the
/// GIL), so it is caught GIL-less and rethrown once the GIL is back.
template <typename Fn>
void without_gil(Fn&& fn) {
  std::exception_ptr error;
  PyThreadState* state = PyEval_SaveThread();
  try {
    fn();
  } catch (...) {
    error = std::current_exception();
  }
  PyEval_RestoreThread(state);
  if (error) std::rethrow_exception(error);
}

extern "C" {

PyObject* py_version(PyObject*, PyObject*) {
  return PyUnicode_FromString(pcal::api::version());
}

PyObject* py_knows(PyObject*, PyObject* arg) {
  std::string key;
  if (!value_to_string(arg, &key)) return nullptr;
  return PyBool_FromLong(RunConfig::knows(key) ? 1 : 0);
}

PyObject* py_validate(PyObject*, PyObject* arg) {
  RunConfig rc;
  if (!entries_to_config(arg, &rc)) return nullptr;
  try {
    return issues_to_list(rc.validate());
  } catch (const std::exception& e) {
    return raise_pcal_error(e);
  }
}

PyObject* py_run(PyObject*, PyObject* args, PyObject* kwargs) {
  static const char* kwlist[] = {"entries", "aging", "timeline", nullptr};
  PyObject* entries = nullptr;
  int aging = 1;
  const char* timeline = nullptr;
  if (!PyArg_ParseTupleAndKeywords(args, kwargs, "O|pz",
                                   const_cast<char**>(kwlist), &entries,
                                   &aging, &timeline))
    return nullptr;
  RunConfig rc;
  if (!entries_to_config(entries, &rc)) return nullptr;

  try {
    pcal::api::RunOptions options;
    options.aging = aging != 0;
    // The recorder is priced from the assembled config up front; the
    // facade re-assembles internally, deterministically.
    pcal::api::TimelineRecorder recorder;
    if (timeline != nullptr) {
      pcal::RunAssembly asmb;
      for (const auto& [key, value] : rc.entries()) asmb.set(key, value);
      pcal::RunAssembly::Assembled assembled = asmb.assemble();
      if (assembled.multicore)
        recorder.price_with(*assembled.multicore);
      else
        recorder.price_with(assembled.config);
      options.observer = recorder.observer();
    }

    pcal::api::RunOutput out;
    without_gil([&] { out = pcal::api::run(rc, options); });

    if (timeline != nullptr) {
      recorder.set_run_label(out.result.workload + " on " +
                             out.result.config_label);
      recorder.write_json_file(timeline);
    }
    return result_to_dict(out.result, out.cores);
  } catch (const std::exception& e) {
    return raise_pcal_error(e);
  }
}

PyObject* py_sweep(PyObject*, PyObject* args, PyObject* kwargs) {
  static const char* kwlist[] = {"spec_text", "workers", "name",
                                 "aging",     "timeline_dir", nullptr};
  const char* spec_text = nullptr;
  unsigned int workers = 0;
  const char* name = "python";
  int aging = 1;
  const char* timeline_dir = nullptr;
  if (!PyArg_ParseTupleAndKeywords(args, kwargs, "s|Ispz",
                                   const_cast<char**>(kwlist), &spec_text,
                                   &workers, &name, &aging, &timeline_dir))
    return nullptr;

  try {
    std::istringstream is{std::string(spec_text)};
    const pcal::GridSpec spec = pcal::GridSpec::parse(is, name);

    pcal::api::GridOptions options;
    options.workers = workers;
    options.aging = aging != 0;

    // With timeline_dir, pre-expand the grid (expand() is deterministic,
    // so indices line up with run_grid's own expansion) to price one
    // recorder per job and attach its observer.
    std::vector<std::unique_ptr<pcal::api::TimelineRecorder>> recorders;
    if (timeline_dir != nullptr) {
      if (!ensure_dir(timeline_dir)) return nullptr;
      const std::vector<pcal::GridJob> jobs = spec.expand();
      recorders.reserve(jobs.size());
      for (const pcal::GridJob& job : jobs) {
        auto rec = std::make_unique<pcal::api::TimelineRecorder>(
            spec.job_label(job));
        if (job.multicore)
          rec->price_with(*job.multicore);
        else
          rec->price_with(job.config);
        recorders.push_back(std::move(rec));
      }
      options.make_observer = [&recorders](std::size_t i) {
        return recorders.at(i)->observer();
      };
    }

    pcal::api::GridRun run;
    without_gil([&] { run = pcal::api::run_grid(spec, options); });

    for (std::size_t i = 0; i < recorders.size(); ++i) {
      if (recorders[i]->intervals().empty()) continue;  // failed job
      recorders[i]->write_json_file(std::string(timeline_dir) + "/" +
                                    spec.name() + "_job" +
                                    std::to_string(i) + ".json");
    }

    const std::size_t n = run.outcomes.size();
    const auto result = [&](std::size_t i) {
      const pcal::SweepOutcome& o = run.outcomes[i];
      PyObject* res = result_to_dict(o.result, o.cores);
      if (res != nullptr &&
          !(set_item(res, "ok", PyBool_FromLong(o.ok() ? 1 : 0)) &&
            (o.ok() || set_str(res, "error", o.error_what))))
        Py_CLEAR(res);
      return res;
    };
    return make_dict([&](PyObject* d) {
      return set_str(d, "name", spec.name()) && set_u64(d, "jobs", n) &&
             set_u64(d, "failed_jobs", run.failed_jobs()) &&
             set_u64(d, "workers", run.stats.threads) &&
             set_u64(d, "total_accesses", run.stats.total_accesses) &&
             set_str(d, "table", run.table) &&
             set_item(d, "rows", make_list(n, [&](std::size_t i) {
                        return py_str(run.result_row(i));
                      })) &&
             set_item(d, "labels", make_list(n, [&](std::size_t i) {
                        return py_str(spec.job_label(run.jobs[i]));
                      })) &&
             set_item(d, "results", make_list(n, result));
    });
  } catch (const std::exception& e) {
    return raise_pcal_error(e);
  }
}

}  // extern "C"

PyMethodDef kMethods[] = {
    {"version", py_version, METH_NOARGS,
     "version() -> str\n\nLibrary version of the pcal facade."},
    {"knows", py_knows, METH_O,
     "knows(key) -> bool\n\nTrue iff the shared config vocabulary knows "
     "this key."},
    {"validate", py_validate, METH_O,
     "validate(entries) -> list[dict]\n\nChecks a configuration without "
     "running it; one {key, value, reason} dict per problem (empty list "
     "== run() will accept it).  `entries` is a dict or (key, value) "
     "sequence."},
    {"run", (PyCFunction)(void (*)())py_run, METH_VARARGS | METH_KEYWORDS,
     "run(entries, aging=True, timeline=None) -> dict\n\nRuns one "
     "configuration (pcalsim's path) and returns its metrics; "
     "timeline='out.json' also writes the power-state timeline "
     "artifact."},
    {"sweep", (PyCFunction)(void (*)())py_sweep, METH_VARARGS | METH_KEYWORDS,
     "sweep(spec_text, workers=0, name='python', aging=True, "
     "timeline_dir=None) -> dict\n\nExpands and runs a .sweep spec "
     "(pcalsweep's path).  'rows' holds BENCH-parity JSON result rows; "
     "outcomes are bit-identical at any worker count."},
    {nullptr, nullptr, 0, nullptr}};

PyModuleDef kModule = {PyModuleDef_HEAD_INIT,
                       "pcal",
                       "Embeddable surface of the pcal partitioned-cache "
                       "leakage/aging simulator (docs/PYTHON.md).",
                       -1,
                       kMethods,
                       nullptr,
                       nullptr,
                       nullptr,
                       nullptr};

}  // namespace

PyMODINIT_FUNC PyInit_pcal() {
  PyObject* module = PyModule_Create(&kModule);
  if (module == nullptr) return nullptr;
  g_error = PyErr_NewExceptionWithDoc(
      "pcal.Error", "Configuration or simulation error from the pcal engine.",
      PyExc_ValueError, nullptr);
  if (g_error == nullptr || PyModule_AddObject(module, "Error", g_error) < 0 ||
      PyModule_AddStringConstant(module, "__version__",
                                 pcal::api::version()) < 0 ||
      PyModule_AddStringConstant(module, "TIMELINE_SCHEMA",
                                 pcal::api::kTimelineSchema) < 0 ||
      PyModule_AddIntConstant(module, "TIMELINE_VERSION",
                              pcal::api::kTimelineVersion) < 0) {
    Py_XDECREF(g_error);
    Py_DECREF(module);
    return nullptr;
  }
  Py_INCREF(g_error);  // the module stole one reference; keep our global
  return module;
}
