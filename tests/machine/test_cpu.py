"""CPU semantics tests, driven through compiled MiniC programs."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ArityError, CpuLimitExceeded, MiniCRuntimeError, StackOverflow
from repro.machine.cpu import _c_div, _c_mod

from tests.conftest import run_minic


def expr_program(expression: str) -> str:
    return f"int main() {{ return {expression}; }}"


class TestIntegerArithmetic:
    @pytest.mark.parametrize(
        "expression,expected",
        [
            ("1 + 2", 3),
            ("10 - 4", 6),
            ("6 * 7", 42),
            ("7 / 2", 3),
            ("-7 / 2", -3),       # C truncates toward zero
            ("7 / -2", -3),
            ("-7 / -2", 3),
            ("7 % 3", 1),
            ("-7 % 3", -1),       # sign follows dividend
            ("7 % -3", 1),
            ("1 << 10", 1024),
            ("1024 >> 3", 128),
            ("0xF0 & 0x3C", 0x30),
            ("0xF0 | 0x0F", 0xFF),
            ("0xFF ^ 0x0F", 0xF0),
            ("~0", -1),
            ("-(5)", -5),
            ("2 + 3 * 4", 14),     # precedence
            ("(2 + 3) * 4", 20),
        ],
    )
    def test_expression(self, expression, expected):
        assert run_minic(expr_program(expression)) == expected

    def test_division_by_zero_raises(self):
        with pytest.raises(MiniCRuntimeError):
            run_minic("int main() { int z; z = 0; return 5 / z; }")

    def test_char_literals_are_ints(self):
        assert run_minic(expr_program("'a'")) == 97
        assert run_minic(expr_program("'\\n'")) == 10


class TestComparisonsAndLogic:
    @pytest.mark.parametrize(
        "expression,expected",
        [
            ("3 < 4", 1), ("4 < 3", 0), ("3 <= 3", 1), ("3 > 4", 0),
            ("4 >= 4", 1), ("3 == 3", 1), ("3 != 3", 0),
            ("1 && 1", 1), ("1 && 0", 0), ("0 || 1", 1), ("0 || 0", 0),
            ("!0", 1), ("!5", 0),
        ],
    )
    def test_expression(self, expression, expected):
        assert run_minic(expr_program(expression)) == expected

    def test_short_circuit_and_skips_rhs(self):
        source = """
        int side;
        int bump() { side = side + 1; return 1; }
        int main() {
          int r;
          r = 0 && bump();
          return side * 10 + r;
        }
        """
        assert run_minic(source) == 0

    def test_short_circuit_or_skips_rhs(self):
        source = """
        int side;
        int bump() { side = side + 1; return 0; }
        int main() {
          int r;
          r = 1 || bump();
          return side * 10 + r;
        }
        """
        assert run_minic(source) == 1

    def test_logical_result_normalized_to_one(self):
        assert run_minic(expr_program("7 && 9")) == 1
        assert run_minic(expr_program("0 || 42")) == 1


class TestFloats:
    def test_float_arithmetic(self):
        assert run_minic("int main() { float x; x = 1.5 * 4.0; return x; }") == 6

    def test_int_to_float_conversion(self):
        assert run_minic("int main() { float x; x = 3; x = x / 2.0; return x * 10.0; }") == 15

    def test_float_compare(self):
        assert run_minic(expr_program("1.5 < 2.5")) == 1

    def test_float_division_by_zero_raises(self):
        with pytest.raises(MiniCRuntimeError):
            run_minic("int main() { float z; z = 0.0; return 1.0 / z; }")

    def test_mixed_arithmetic_promotes(self):
        assert run_minic("int main() { float x; x = 1 + 0.5; return x * 2.0; }") == 3


class TestControlFlow:
    def test_if_else(self):
        source = "int main() { if (3 > 2) return 1; else return 2; }"
        assert run_minic(source) == 1

    def test_while_loop(self):
        source = "int main() { int i; int s; s = 0; i = 0; while (i < 10) { s = s + i; i = i + 1; } return s; }"
        assert run_minic(source) == 45

    def test_for_loop(self):
        source = "int main() { int i; int s; s = 0; for (i = 0; i < 5; i = i + 1) s = s + i * i; return s; }"
        assert run_minic(source) == 30

    def test_break(self):
        source = "int main() { int i; for (i = 0; i < 100; i = i + 1) { if (i == 7) break; } return i; }"
        assert run_minic(source) == 7

    def test_continue(self):
        source = """
        int main() {
          int i; int s; s = 0;
          for (i = 0; i < 10; i = i + 1) { if (i % 2 == 0) continue; s = s + i; }
          return s;
        }
        """
        assert run_minic(source) == 25

    def test_continue_in_while_reaches_condition(self):
        source = """
        int main() {
          int i; int s; i = 0; s = 0;
          while (i < 5) { i = i + 1; if (i == 3) continue; s = s + i; }
          return s;
        }
        """
        assert run_minic(source) == 12

    def test_nested_loops_with_break(self):
        source = """
        int main() {
          int i; int j; int c; c = 0;
          for (i = 0; i < 4; i = i + 1) {
            for (j = 0; j < 4; j = j + 1) { if (j == 2) break; c = c + 1; }
          }
          return c;
        }
        """
        assert run_minic(source) == 8


class TestFunctionsAndStack:
    def test_recursion(self):
        source = """
        int fact(int n) { if (n <= 1) return 1; return n * fact(n - 1); }
        int main() { return fact(7); }
        """
        assert run_minic(source) == 5040

    def test_mutual_recursion(self):
        source = """
        int is_odd(int n);
        int is_even(int n) { if (n == 0) return 1; return is_odd(n - 1); }
        int is_odd(int n) { if (n == 0) return 0; return is_even(n - 1); }
        int main() { return is_even(10) * 10 + is_odd(7); }
        """
        assert run_minic(source) == 11

    def test_arguments_passed_by_value(self):
        source = """
        void clobber(int x) { x = 999; }
        int main() { int v; v = 5; clobber(v); return v; }
        """
        assert run_minic(source) == 5

    def test_locals_fresh_per_instantiation(self):
        source = """
        int probe(int depth) {
          int mine;
          mine = depth;
          if (depth > 0) probe(depth - 1);
          return mine;
        }
        int main() { return probe(5); }
        """
        assert run_minic(source) == 5

    def test_entry_arity_is_checked(self):
        with pytest.raises(ArityError):
            run_minic("int main() { return 7; }", args=(1, 2, 3, 4, 5))
        two = "int f(int a, int b) { return a * 10 + b; } int main() { return 0; }"
        with pytest.raises(ArityError):
            run_minic(two, entry="f", args=(5,))
        assert run_minic(two, entry="f", args=(5, 3)) == 53

    def test_stack_overflow_detected(self):
        source = """
        int forever(int n) { int pad[64]; pad[0] = n; return forever(n + 1); }
        int main() { return forever(0); }
        """
        with pytest.raises(StackOverflow):
            run_minic(source)

    def test_instruction_budget_enforced(self):
        source = "int main() { while (1) { } return 0; }"
        with pytest.raises(CpuLimitExceeded):
            run_minic(source)

    def test_void_function_falls_off_end(self):
        source = """
        int g;
        void set() { g = 9; }
        int main() { set(); return g; }
        """
        assert run_minic(source) == 9

    def test_int_function_implicit_return_zero(self):
        source = """
        int nothing() { }
        int main() { return nothing() + 3; }
        """
        assert run_minic(source) == 3


class TestPointers:
    def test_address_of_and_deref(self):
        source = "int main() { int x; int *p; x = 10; p = &x; *p = 20; return x; }"
        assert run_minic(source) == 20

    def test_pointer_arithmetic_scales_by_word(self):
        source = """
        int main() {
          int a[4]; int *p;
          a[0] = 1; a[1] = 2; a[2] = 3; a[3] = 4;
          p = a;
          p = p + 2;
          return *p;
        }
        """
        assert run_minic(source) == 3

    def test_pointer_difference_in_elements(self):
        source = """
        int main() {
          int a[10]; int *p; int *q;
          p = &a[2]; q = &a[7];
          return q - p;
        }
        """
        assert run_minic(source) == 5

    def test_array_decay_in_call(self):
        source = """
        int first(int *a) { return a[0]; }
        int main() { int a[3]; a[0] = 77; return first(a); }
        """
        assert run_minic(source) == 77

    def test_out_param_through_pointer(self):
        source = """
        void set(int *out, int v) { *out = v; }
        int main() { int x; set(&x, 31); return x; }
        """
        assert run_minic(source) == 31

    def test_pointer_into_global_array(self):
        source = """
        int table[8];
        int main() { int *p; p = &table[3]; *p = 5; return table[3]; }
        """
        assert run_minic(source) == 5


class TestGlobalsAndStatics:
    def test_global_initializer(self):
        assert run_minic("int g = 41; int main() { return g + 1; }") == 42

    def test_global_array_initializer(self):
        source = "int a[4] = {10, 20, 30}; int main() { return a[0] + a[1] + a[2] + a[3]; }"
        assert run_minic(source) == 60

    def test_static_local_persists(self):
        source = """
        int counter() { static int n; n = n + 1; return n; }
        int main() { counter(); counter(); return counter(); }
        """
        assert run_minic(source) == 3

    def test_statics_in_different_functions_distinct(self):
        source = """
        int a() { static int n; n = n + 1; return n; }
        int b() { static int n; n = n + 10; return n; }
        int main() { a(); b(); return a() * 100 + b(); }
        """
        assert run_minic(source) == 220

    def test_float_global_initializer(self):
        assert run_minic("float f = 2.5; int main() { return f * 4.0; }") == 10


def _c_eval(op, a, b):
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "/":
        return _c_div(a, b)
    return _c_mod(a, b)


@settings(max_examples=60, deadline=None)
@given(
    a=st.integers(-1000, 1000),
    b=st.integers(-1000, 1000),
    c=st.integers(1, 50),
    op1=st.sampled_from("+-*"),
    op2=st.sampled_from("+-*/%"),
)
def test_expression_oracle(a, b, c, op1, op2):
    """Random arithmetic expressions agree with a C-semantics oracle."""
    expected = _c_eval(op2, _c_eval(op1, a, b), c)
    got = run_minic(expr_program(f"(({a}) {op1} ({b})) {op2} ({c})"))
    assert got == expected


class TestCDivHelpers:
    @given(a=st.integers(-10**6, 10**6), b=st.integers(-10**6, 10**6).filter(lambda x: x != 0))
    def test_div_mod_identity(self, a, b):
        assert _c_div(a, b) * b + _c_mod(a, b) == a

    @given(a=st.integers(-10**6, 10**6), b=st.integers(-10**6, 10**6).filter(lambda x: x != 0))
    def test_mod_sign_follows_dividend(self, a, b):
        remainder = _c_mod(a, b)
        assert remainder == 0 or (remainder > 0) == (a > 0)
