//! Language-conformance tests: a broad sweep over the model-definition
//! language's constructs, semantics and error reporting, through the public
//! `CompiledModel` pipeline.

use perfmodel::{
    analyze, CompiledModel, EvalError, ParamValue, PerformanceModel, RecordingSink, SchemeEvent,
};

fn compile(src: &str) -> CompiledModel {
    CompiledModel::compile(src).expect("source parses")
}

fn events(model: &CompiledModel, params: &[ParamValue]) -> Vec<SchemeEvent> {
    let inst = model.instantiate(params).unwrap();
    let mut sink = RecordingSink::default();
    inst.run_scheme(&mut sink).unwrap();
    sink.events
}

fn computes(events: &[SchemeEvent]) -> Vec<(usize, f64)> {
    events
        .iter()
        .filter_map(|e| match e {
            SchemeEvent::Compute { proc, percent } => Some((*proc, *percent)),
            _ => None,
        })
        .collect()
}

// ---------- control flow ---------------------------------------------------

#[test]
fn sequential_for_inside_par() {
    let src = r"
        algorithm T(int p, int steps) {
            coord I=p;
            node {I>=0: bench*(1);};
            parent[0];
            scheme {
                int i, s;
                par (i = 0; i < p; i++)
                    for (s = 0; s < steps; s++)
                        (100/steps)%%[i];
            };
        }
    ";
    let m = compile(src);
    let ev = events(&m, &[ParamValue::Int(2), ParamValue::Int(4)]);
    let cs = computes(&ev);
    assert_eq!(cs.len(), 8); // 2 procs x 4 steps
    assert!(cs.iter().all(|(_, pct)| (*pct - 25.0).abs() < 1e-12));
}

#[test]
fn else_branches_and_nested_ifs() {
    let src = r"
        algorithm T(int p) {
            coord I=p;
            node {I>=0: bench*(1);};
            parent[0];
            scheme {
                int i;
                par (i = 0; i < p; i++)
                    if (i == 0) 10%%[i];
                    else if (i == 1) 20%%[i];
                    else 30%%[i];
            };
        }
    ";
    let ev = events(&compile(src), &[ParamValue::Int(3)]);
    assert_eq!(
        computes(&ev),
        vec![(0, 10.0), (1, 20.0), (2, 30.0)]
    );
}

#[test]
fn while_style_par_with_internal_step() {
    let src = r"
        algorithm T(int l) {
            coord I=1;
            node {I>=0: bench*(1);};
            parent[0];
            scheme {
                int x;
                par (x = 1; x < l; ) {
                    (100/4)%%[0];
                    x *= 2;
                }
            };
        }
    ";
    // l = 16: x = 1,2,4,8 -> 4 iterations.
    let ev = events(&compile(src), &[ParamValue::Int(16)]);
    assert_eq!(computes(&ev).len(), 4);
}

#[test]
fn decrementing_loops() {
    let src = r"
        algorithm T(int p) {
            coord I=p;
            node {I>=0: bench*(1);};
            parent[0];
            scheme {
                int i;
                for (i = p - 1; i >= 0; i--) 100%%[i];
            };
        }
    ";
    let ev = events(&compile(src), &[ParamValue::Int(3)]);
    assert_eq!(computes(&ev), vec![(2, 100.0), (1, 100.0), (0, 100.0)]);
}

// ---------- expressions -----------------------------------------------------

#[test]
fn operator_precedence_matches_c() {
    // 2 + 3 * 4 % 5 - -1 = 2 + (12 % 5) + 1 = 5... via volumes.
    let src = r"
        algorithm T(int a) {
            coord I=1;
            node {I>=0: bench*(2 + 3 * 4 % 5 - -1);};
            parent[0];
            scheme {;};
        }
    ";
    let inst = compile(src).instantiate(&[ParamValue::Int(0)]).unwrap();
    assert_eq!(inst.volumes(), &[5.0]);
}

#[test]
fn comparison_chains_via_logic() {
    let src = r"
        algorithm T(int a, int b) {
            coord I=1;
            node {I>=0: bench*((a < b) + (a <= b) + (a == b) + (a != b) + (a > b) + (a >= b));};
            parent[0];
            scheme {;};
        }
    ";
    let inst = compile(src)
        .instantiate(&[ParamValue::Int(3), ParamValue::Int(7)])
        .unwrap();
    // true: <, <=, != -> 3
    assert_eq!(inst.volumes(), &[3.0]);
}

#[test]
fn sizeof_variants_in_link_volumes() {
    let src = r"
        algorithm T(int p) {
            coord I=p;
            node {I>=0: bench*(1);};
            link (L=p) {
                I==0 && L==1 : length*(sizeof(char) + sizeof(short) + sizeof(int) + sizeof(float) + sizeof(long) + sizeof(double)) [I]->[L];
            };
            parent[0];
            scheme {;};
        }
    ";
    let inst = compile(src).instantiate(&[ParamValue::Int(2)]).unwrap();
    assert_eq!(inst.comm_bytes()[0][1], (1 + 2 + 4 + 4 + 8 + 8) as f64);
}

#[test]
fn modulo_and_division_in_guards() {
    let src = r"
        algorithm T(int p) {
            coord I=p;
            node {
                I % 2 == 0: bench*(10);
                I % 2 == 1: bench*(20);
            };
            parent[0];
            scheme {;};
        }
    ";
    let inst = compile(src).instantiate(&[ParamValue::Int(4)]).unwrap();
    assert_eq!(inst.volumes(), &[10.0, 20.0, 10.0, 20.0]);
}

#[test]
fn first_matching_node_rule_wins() {
    let src = r"
        algorithm T(int p) {
            coord I=p;
            node {
                I == 0: bench*(1);
                I >= 0: bench*(2);
            };
            parent[0];
            scheme {;};
        }
    ";
    let inst = compile(src).instantiate(&[ParamValue::Int(3)]).unwrap();
    assert_eq!(inst.volumes(), &[1.0, 2.0, 2.0]);
}

// ---------- errors ----------------------------------------------------------

#[test]
fn runtime_index_out_of_bounds_is_reported() {
    let src = r"
        algorithm T(int p, int d[p]) {
            coord I=p;
            node {I>=0: bench*(d[p]);};
            parent[0];
            scheme {;};
        }
    ";
    let err = compile(src)
        .instantiate(&[ParamValue::Int(2), ParamValue::Array(vec![1, 2])])
        .unwrap_err();
    assert!(matches!(err, EvalError::IndexOutOfBounds { .. }), "{err}");
}

#[test]
fn undefined_variable_is_reported() {
    let src = r"
        algorithm T(int p) {
            coord I=p;
            node {I>=0: bench*(mystery);};
            parent[0];
            scheme {;};
        }
    ";
    let err = CompiledModel::compile(src).unwrap_err();
    assert_eq!(err.message, "undefined name `mystery`");
}

#[test]
fn division_by_zero_in_volume_is_reported() {
    let src = r"
        algorithm T(int k) {
            coord I=1;
            node {I>=0: bench*(100/k);};
            parent[0];
            scheme {;};
        }
    ";
    let err = compile(src).instantiate(&[ParamValue::Int(0)]).unwrap_err();
    assert_eq!(err, EvalError::DivisionByZero);
}

#[test]
fn unknown_extern_function_is_reported() {
    let src = r"
        algorithm T(int p) {
            coord I=p;
            node {I>=0: bench*(1);};
            parent[0];
            scheme { Frobnicate(p); };
        }
    ";
    let err = CompiledModel::compile(src).unwrap_err();
    assert_eq!(err.message, "undefined extern function `Frobnicate`");
}

#[test]
fn parse_errors_point_at_the_problem() {
    // Missing semicolon after the node section.
    let src = "algorithm T(int p) { coord I=p; node {I>=0: bench*(1);} parent[0]; scheme {;}; }";
    let err = CompiledModel::compile(src).unwrap_err();
    assert!(err.line >= 1 && err.col >= 1);
    assert!(err.to_string().contains("expected"));
}

// ---------- multiple algorithms, analysis integration -----------------------

#[test]
fn several_algorithms_in_one_source() {
    let src = r"
        algorithm A(int p) { coord I=p; node {I>=0: bench*(1);}; parent[0]; scheme {;}; }
        algorithm B(int q) { coord I=q; node {I>=0: bench*(7);}; parent[0]; scheme {;}; }
    ";
    let a = CompiledModel::compile_named(src, Some("A")).unwrap();
    let b = CompiledModel::compile_named(src, Some("B")).unwrap();
    assert_eq!(
        a.instantiate(&[ParamValue::Int(2)]).unwrap().volumes(),
        &[1.0, 1.0]
    );
    assert_eq!(
        b.instantiate(&[ParamValue::Int(1)]).unwrap().volumes(),
        &[7.0]
    );
}

#[test]
fn analysis_integrates_with_parsed_models() {
    // A model whose scheme does only half the work on processor 1 gets
    // flagged by the linter through the whole pipeline.
    let src = r"
        algorithm Half(int p) {
            coord I=p;
            node {I>=0: bench*(10);};
            parent[0];
            scheme {
                100%%[0];
                50%%[1];
            };
        }
    ";
    let inst = compile(src).instantiate(&[ParamValue::Int(2)]).unwrap();
    let report = analyze(&inst).unwrap();
    assert_eq!(report.findings.len(), 1);
}

#[test]
fn three_dimensional_coordinate_space() {
    let src = r"
        algorithm Cube(int a, int b, int c) {
            coord X=a, Y=b, Z=c;
            node {X>=0 && Y>=0 && Z>=0: bench*(X*100 + Y*10 + Z);};
            parent[0, 0, 0];
            scheme {
                100%%[1, 1, 1];
            };
        }
    ";
    let m = compile(src);
    let inst = m
        .instantiate(&[ParamValue::Int(2), ParamValue::Int(2), ParamValue::Int(2)])
        .unwrap();
    assert_eq!(inst.num_processors(), 8);
    // Linear index of (1,1,1) in a 2x2x2 row-major space is 7.
    let mut sink = RecordingSink::default();
    inst.run_scheme(&mut sink).unwrap();
    assert_eq!(
        sink.events,
        vec![SchemeEvent::Compute {
            proc: 7,
            percent: 100.0
        }]
    );
    assert_eq!(inst.volumes()[7], 111.0);
}
