//! The security properties of §3, §3.1 and §4.4, checked end to end.

use secmod_core::prelude::*;
use secmod_kernel::trace::Event;
use secmod_kernel::Errno;
use secmod_vm::Vaddr;

const KEY: &[u8] = b"security-credential";

fn module() -> SecureModule {
    SecureModuleBuilder::new("libsec", 1)
        .function("noop", |_ctx, _args| Ok(vec![]))
        .allow_credential(KEY)
        .build()
        .unwrap()
}

fn world_with_client() -> (SimWorld, Pid, Pid) {
    let mut world = SimWorld::new();
    world.install(&module()).unwrap();
    let client = world
        .spawn_client(
            "app",
            Credential::user(1000, 100).with_smod_credential("libsec", KEY),
        )
        .unwrap();
    world.connect(client, "libsec", 0).unwrap();
    let handle = world
        .kernel
        .procs
        .with(client, |p| p.smod.unwrap().peer)
        .unwrap();
    (world, client, handle)
}

#[test]
fn client_never_sees_module_text() {
    let (world, client, handle) = world_with_client();
    let text_base = world.kernel.layout.text_base;
    let m_id = world.module_id("libsec").unwrap();
    let module_text = world
        .kernel
        .registry
        .get(m_id)
        .unwrap()
        .plaintext
        .text
        .data
        .clone();

    // Handle maps the module text …
    let handle_view = world
        .kernel
        .read_user_memory(handle, Vaddr(text_base), 64.min(module_text.len()))
        .unwrap();
    assert_eq!(&handle_view[..], &module_text[..handle_view.len()]);

    // … the client's text is its own program, not the module's.
    let client_view = world
        .kernel
        .read_user_memory(client, Vaddr(text_base), 64)
        .unwrap();
    assert_ne!(client_view, handle_view);

    // And the registered package on disk is encrypted: the sealed text does
    // not contain the plaintext bytes.
    let registered = world.kernel.registry.get(m_id).unwrap();
    let sealed = &registered.package;
    assert!(sealed.encrypted);
    assert_ne!(sealed.image.text.data, module_text);
}

#[test]
fn handle_is_bound_to_exactly_one_client() {
    let (mut world, _client, _handle) = world_with_client();
    // A second process with the *same* credentials still cannot use the
    // first client's session: it has to establish its own.
    let other = world
        .spawn_client(
            "other",
            Credential::user(1000, 100).with_smod_credential("libsec", KEY),
        )
        .unwrap();
    assert!(matches!(
        world.call(other, "noop", &[]),
        Err(secmod_core::SmodError::NoSession)
    ));
    // Going directly at the kernel with the first client's module id also
    // fails, because `other` has no session link.
    let m_id = world.module_id("libsec").unwrap();
    let err = world
        .kernel
        .sys_smod_call(
            other,
            secmod_kernel::SmodCallArgs {
                m_id,
                func_id: 0,
                frame_pointer: 0,
                return_address: 0,
                args: vec![],
            },
        )
        .unwrap_err();
    assert_eq!(err, Errno::EPERM);
}

#[test]
fn credentials_are_checked_on_every_call_not_just_session_start() {
    let (world, client, _handle) = world_with_client();
    // Establish the session legitimately, then strip the credential from the
    // process (simulating a credential that expires or is revoked).
    world.call(client, "noop", &[]).unwrap();
    world
        .kernel
        .procs
        .with_mut(client, |p| p.cred = Credential::user(1000, 100))
        .unwrap();
    let err = world.call(client, "noop", &[]).unwrap_err();
    assert!(matches!(err, secmod_core::SmodError::Kernel(Errno::EACCES)));
    // The denied call is visible in the audit trail.
    assert!(world
        .kernel
        .tracer
        .events()
        .iter()
        .any(|e| matches!(e, Event::SmodCall { allowed: false, .. })));
}

#[test]
fn no_core_dumps_and_no_ptrace_for_the_pair() {
    let (mut world, client, handle) = world_with_client();
    let debugger = world.spawn_client("debugger", Credential::root()).unwrap();
    assert_eq!(
        world
            .kernel
            .sys_ptrace_attach(debugger, handle)
            .unwrap_err(),
        Errno::EPERM
    );
    assert_eq!(
        world
            .kernel
            .sys_ptrace_attach(debugger, client)
            .unwrap_err(),
        Errno::EPERM
    );
    // Crashing either member produces no core image.
    assert!(!world.kernel.crash_process(handle).unwrap());
    assert!(world
        .kernel
        .tracer
        .events()
        .iter()
        .any(|e| matches!(e, Event::PtraceDenied { .. })));
    assert!(world
        .kernel
        .tracer
        .events()
        .iter()
        .any(|e| matches!(e, Event::CoreDumpSuppressed { .. })));
}

#[test]
fn execve_detaches_the_session_and_kills_the_handle() {
    let (world, client, handle) = world_with_client();
    world
        .kernel
        .sys_execve(client, "fresh-image", vec![0xCC; 4096])
        .unwrap();
    assert_eq!(
        world.kernel.procs.with(handle, |_| ()).unwrap_err(),
        Errno::ESRCH
    );
    assert!(world.kernel.sessions.is_empty());
    assert!(world
        .kernel
        .tracer
        .events()
        .iter()
        .any(|e| matches!(e, Event::SessionDetached { .. })));
}

#[test]
fn module_removal_is_gated_on_ownership_and_active_sessions() {
    let (mut world, client, _handle) = world_with_client();
    let m_id = world.module_id("libsec").unwrap();
    // The client (uid 1000, not the registrar) may not remove the module.
    assert_eq!(
        world.kernel.sys_smod_remove(client, m_id).unwrap_err(),
        Errno::EPERM
    );
    // Even the owner cannot remove it while the session lives.
    assert!(world.uninstall("libsec").is_err());
    world.disconnect(client).unwrap();
    world.uninstall("libsec").unwrap();
}

#[test]
fn wrapped_key_delivery_goes_through_the_host_rsa_key() {
    // §4.4: in the multi-user case the module key is shipped wrapped with
    // the hosting system's public key and unwrapped only inside the kernel.
    use secmod_crypto::rng::HashDrbg;
    use secmod_crypto::rsa::generate_keypair;
    use secmod_kernel::smod::ModuleKeyDelivery;

    let m = module();
    let world = SimWorld::new();

    // Give the kernel a host RSA key.
    let mut rng = HashDrbg::new(b"host-key-seed");
    let host_rsa = generate_keypair(512, &mut rng);
    let host_pub = host_rsa.public.clone();
    world.kernel.keystore.set_host_key(host_rsa);

    // The module creator wraps the module key for the host.
    let wrapped = host_pub.wrap(&m.module_key, &mut rng).unwrap();
    let registrar = world
        .kernel
        .spawn_process("creator", Credential::root(), vec![0x90; 4096], 2, 2)
        .unwrap();
    let m_id = world
        .kernel
        .sys_smod_add(
            registrar,
            m.package.clone(),
            ModuleKeyDelivery::Wrapped {
                blob: wrapped,
                nonce: m.nonce,
            },
            &m.mac_key,
            m.policy.clone(),
            m.function_table(),
        )
        .unwrap();
    // The kernel decrypted the text correctly (fingerprint verified inside
    // sys_smod_add), so the plaintext matches the original image.
    assert_eq!(
        world
            .kernel
            .registry
            .get(m_id)
            .unwrap()
            .plaintext
            .fingerprint(),
        m.package.plaintext_fingerprint
    );
}
