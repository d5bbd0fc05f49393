"""Delite substrate: kernels, vectorizer, ops, runtime backends, fusion."""

import numpy as np
import pytest

from repro import Lancet
from repro.delite.kernels import Kernel, try_vectorize
from repro.delite.ops import (CLUSTER_SUMS_2D, DOT, NEAREST_2D, SIGMOID,
                              VSUB, VSUM, MapOp, MapReduceOp, ReduceOp,
                              ZipMapOp, mat_vec_cols, weighted_col_sums)
from repro.delite.runtime import DeliteRuntime


@pytest.fixture
def jit():
    return Lancet()


_CLOSURE_COUNT = [0]


def guest_closure(jit, body):
    _CLOSURE_COUNT[0] += 1
    module = "KernelSrc%d" % _CLOSURE_COUNT[0]
    jit.load("def mk() { return %s; }" % body, module=module)
    return jit.vm.call(module, "mk")


class TestKernelVectorizer:
    def test_arithmetic_kernel_vectorizes(self, jit):
        closure = guest_closure(jit, "fun(x) => x * x + 1.0")
        kernel = Kernel.from_closure(jit, closure)
        assert kernel.vectorized
        arr = np.array([1.0, 2.0, 3.0])
        assert np.allclose(kernel.numpy_fn(arr), arr * arr + 1.0)
        assert kernel.scalar_fn(3.0) == 10.0

    def test_math_natives_vectorize(self, jit):
        closure = guest_closure(jit, "fun(x) => Math.exp(0.0 - x)")
        kernel = Kernel.from_closure(jit, closure)
        assert kernel.vectorized
        arr = np.array([0.0, 1.0])
        assert np.allclose(kernel.numpy_fn(arr), np.exp(-arr))

    def test_control_flow_kernel_falls_back_to_scalar(self, jit):
        closure = guest_closure(
            jit, "fun(x) { if (x > 0) { return x; } return 0 - x; }")
        kernel = Kernel.from_closure(jit, closure)
        assert not kernel.vectorized
        assert kernel.scalar_fn(-3) == 3

    def test_two_arg_kernel(self, jit):
        closure = guest_closure(jit, "fun(x, y) => x * y - 1.0")
        kernel = Kernel.from_closure(jit, closure)
        assert kernel.vectorized
        a, b = np.array([2.0, 3.0]), np.array([4.0, 5.0])
        assert np.allclose(kernel.numpy_fn(a, b), a * b - 1.0)

    def test_compose(self, jit):
        inner = Kernel.from_closure(jit, guest_closure(jit, "fun(x) => x + 1.0"))
        outer = Kernel.from_closure(jit, guest_closure(jit, "fun(x) => x * 2.0"))
        fused = inner.compose(outer)
        assert fused.scalar_fn(3.0) == 8.0
        assert fused.vectorized
        assert np.allclose(fused.numpy_fn(np.array([3.0])), [8.0])


class TestRuntimeBackends:
    def run_all_backends(self, op, *args, cores=(1, 2, 4)):
        results = []
        for backend, c in [("seq", 1)] + [("smp", c) for c in cores] \
                + [("gpu", 1)]:
            rt = DeliteRuntime(backend=backend, cores=c)
            results.append(rt.run(op, *args))
        return results

    def test_map_consistent_across_backends(self, jit):
        kernel = Kernel.from_closure(
            jit, guest_closure(jit, "fun(x) => x * 3.0"))
        xs = [float(i) for i in range(100)]
        results = self.run_all_backends(MapOp(kernel), xs)
        for r in results:
            assert np.allclose(np.asarray(r), np.asarray(xs) * 3.0)

    def test_reduce_consistent(self, jit):
        xs = [float(i) for i in range(1000)]
        for r in self.run_all_backends(ReduceOp(None), xs):
            assert r == pytest.approx(sum(xs))

    def test_mapreduce(self, jit):
        kernel = Kernel.from_closure(
            jit, guest_closure(jit, "fun(x) => x * x"))
        xs = [float(i) for i in range(200)]
        for r in self.run_all_backends(MapReduceOp(kernel), xs):
            assert r == pytest.approx(sum(x * x for x in xs))

    def test_zipmap(self, jit):
        kernel = Kernel.from_closure(
            jit, guest_closure(jit, "fun(x, y) => x - y"))
        a = [float(i) for i in range(50)]
        b = [float(2 * i) for i in range(50)]
        for r in self.run_all_backends(ZipMapOp(kernel), a, b):
            assert np.allclose(np.asarray(r), np.asarray(a) - np.asarray(b))

    def test_sim_clock_advances(self, jit):
        rt = DeliteRuntime(backend="smp", cores=4)
        xs = list(np.linspace(0, 1, 10000))
        rt.run(VSUM, xs)
        assert rt.sim_time > 0
        assert rt.ops_run == 1

    def test_smp_sim_time_below_seq_for_large_inputs(self):
        xs = np.linspace(0, 1, 2_000_000)
        seq = DeliteRuntime(backend="seq")
        smp = DeliteRuntime(backend="smp", cores=8, sync_overhead_us=5)
        r1 = seq.run(SIGMOID, xs)
        r2 = smp.run(SIGMOID, xs)
        assert np.allclose(r1, np.concatenate([r2]) if isinstance(r2, list)
                           else r2)
        assert smp.sim_time < seq.sim_time

    def test_register_data_caches_conversion(self):
        rt = DeliteRuntime()
        xs = [1.0, 2.0]
        arr = rt.register_data(xs)
        assert rt._as_array(xs) is arr


class TestBuiltins:
    def test_nearest2d(self):
        rt = DeliteRuntime()
        px, py = [0.0, 10.0, 0.1], [0.0, 0.0, 0.0]
        assign = rt.run(NEAREST_2D, px, py, [0.0, 10.0], [0.0, 0.0])
        assert list(assign) == [0, 1, 0]

    def test_cluster_sums(self):
        rt = DeliteRuntime()
        sums = rt.run(CLUSTER_SUMS_2D, [1.0, 2.0, 3.0], [4.0, 5.0, 6.0],
                      [0, 1, 0], 2)
        assert list(sums[0]) == [4.0, 2.0]
        assert list(sums[1]) == [10.0, 5.0]
        assert list(sums[2]) == [2.0, 1.0]

    def test_cluster_sums_chunked_combine(self):
        seq = DeliteRuntime(backend="seq")
        smp = DeliteRuntime(backend="smp", cores=4)
        n = 1000
        px = [float(i) for i in range(n)]
        py = [float(2 * i) for i in range(n)]
        assign = [i % 3 for i in range(n)]
        a = seq.run(CLUSTER_SUMS_2D, px, py, assign, 3)
        b = smp.run(CLUSTER_SUMS_2D, px, py, assign, 3)
        assert np.allclose(a, b)

    def test_matvec_and_gradient(self):
        rt = DeliteRuntime()
        cols = [[1.0, 2.0], [3.0, 4.0]]
        w = [0.5, 0.25]
        z = rt.run(mat_vec_cols(2), cols[0], cols[1], w)
        assert np.allclose(z, [1 * .5 + 3 * .25, 2 * .5 + 4 * .25])
        grad = rt.run(weighted_col_sums(2), cols[0], cols[1], [1.0, -1.0])
        assert np.allclose(grad, [1 - 2, 3 - 4])

    def test_dot_and_vsub_and_sigmoid(self):
        rt = DeliteRuntime()
        assert rt.run(DOT, [1.0, 2.0], [3.0, 4.0]) == pytest.approx(11.0)
        assert np.allclose(rt.run(VSUB, [5.0], [2.0]), [3.0])
        assert np.allclose(rt.run(SIGMOID, [0.0]), [0.5])


class TestFusionInIR:
    def make(self, jit, body, module):
        from repro.optiml import load_optiml
        load_optiml(jit)
        jit.load(body, module=module)
        return jit.vm.call(module, "mk")

    def test_map_map_fuses(self, jit):
        cf = self.make(jit, '''
            def mk() {
              var xs = [1.0, 2.0, 3.0];
              return Lancet.compile(fun(d) {
                var a = Optiml.vmap(xs, fun(x) => x + 1.0);
                var b = Optiml.vmap(a, fun(x) => x * 2.0);
                return b;
              });
            }
        ''', "FuseMM")
        out = cf(0)
        assert np.allclose(np.asarray(out), [(x + 1) * 2 for x in [1, 2, 3]])
        assert cf.source.count("_drun") == 1      # fused to one op

    def test_sum_of_map_becomes_mapreduce(self, jit):
        cf = self.make(jit, '''
            def mk() {
              var xs = [1.0, 2.0, 3.0, 4.0];
              return Lancet.compile(fun(d) {
                var sq = Optiml.vmap(xs, fun(x) => x * x);
                return Optiml.vsum(sq);
              });
            }
        ''', "FuseMR")
        # vsum is a builtin reduce; vmap producer feeds it — the current
        # fusion handles ReduceOp(None) over maps (reduceSum path).
        assert cf(0) == pytest.approx(30.0)

    def test_zipwithindex_map_reduce_fuses_to_soa(self, jit):
        cf = self.make(jit, '''
            def mk() {
              var xs = [10.0, 20.0, 30.0];
              return Lancet.compile(fun(d) {
                var pairs = Optiml.zipWithIndex(xs);
                var vals = Optiml.mapArr(pairs, fun(p) => p.snd * p.fst);
                return Optiml.reduceSum(vals);
              });
            }
        ''', "FuseSoA")
        assert cf(0) == pytest.approx(0 * 10 + 1 * 20 + 2 * 30)
        assert cf.source.count("_drun") == 1      # single fused op
        # and no Pair construction remains anywhere in the pipeline
        assert "_newinst" not in cf.source

    def test_fusion_disabled_by_option(self, jit):
        from repro import CompileOptions
        from repro.optiml import load_optiml
        jit = Lancet(options=CompileOptions(delite_fusion=False))
        load_optiml(jit)
        jit.load('''
            def mk() {
              var xs = [1.0, 2.0];
              return Lancet.compile(fun(d) {
                var a = Optiml.vmap(xs, fun(x) => x + 1.0);
                return Optiml.vsum(a);
              });
            }
        ''', "NoFuse")
        cf = jit.vm.call("NoFuse", "mk")
        assert cf(0) == pytest.approx(5.0)
        assert cf.source.count("_drun") == 2      # unfused

    def test_observed_intermediate_not_fused(self, jit):
        cf = self.make(jit, '''
            def mk() {
              var xs = [1.0, 2.0];
              return Lancet.compile(fun(d) {
                var a = Optiml.vmap(xs, fun(x) => x + 1.0);
                var s = Optiml.vsum(a);
                return s + a[0];     // `a` observed: must stay materialized
              });
            }
        ''', "FuseObs")
        assert cf(0) == pytest.approx(5.0 + 2.0)
        assert cf.source.count("_drun") == 2


class TestSumRange:
    """The paper's Fig. 8 operator: sum(start, end)(block) as a
    DeliteOpMapReduce over an index range."""

    def make(self, jit):
        from repro.optiml import load_optiml
        load_optiml(jit)
        jit.load('''
            def mk() {
              return Lancet.compile(fun(d) =>
                Optiml.sumRange(0, 100, fun(i) => i * i));
            }
        ''', module="SumRangeT")
        return jit.vm.call("SumRangeT", "mk")

    def test_matches_interpreted(self, jit):
        cf = self.make(jit)
        expected = sum(i * i for i in range(100))
        assert cf(0) == expected
        assert "_drun" in cf.source      # macro fired

    def test_all_backends_agree(self, jit):
        cf = self.make(jit)
        expected = sum(i * i for i in range(100))
        for backend, cores in [("seq", 1), ("smp", 2), ("smp", 8),
                               ("gpu", 1)]:
            jit.delite.configure(backend, cores=cores)
            assert cf(0) == expected

    def test_kernel_vectorizes(self, jit):
        cf = self.make(jit)
        jit.delite.reset_clock()
        jit.delite.configure("gpu")
        cf(0)
        assert jit.delite.ops_run == 1


class TestKernelCache:
    """OptiML macros cache one Kernel per static closure, per VM: the
    cache must neither keep a dropped VM alive nor hand one VM's kernel
    to another."""

    SRC = '''
        def mk() {
          return Lancet.compile(fun(d) =>
            Optiml.sumRange(0, 10, fun(i) => i * 3));
        }
    '''

    def make(self):
        from repro.optiml import load_optiml
        jit = Lancet()
        load_optiml(jit)
        jit.load(self.SRC, module="KernelCacheT")
        cf = jit.vm.call("KernelCacheT", "mk")
        assert cf(0) == 135
        return jit

    def test_dropped_vm_is_collected(self):
        import gc
        import weakref
        refs = [weakref.ref(self.make()) for __ in range(2)]
        gc.collect()
        assert [r() for r in refs] == [None, None]

    def test_cache_is_per_vm(self):
        j1, j2 = self.make(), self.make()
        (entry1,) = j1.optiml_kernels.values()
        (entry2,) = j2.optiml_kernels.values()
        assert entry1[1] is not entry2[1]
        assert entry1[1].scalar_fn.jit is j1
        assert entry2[1].scalar_fn.jit is j2
